#pragma once

#include "orchestrator/fleet.hpp"
#include "tests/support/placement_reference.hpp"

/// \file fleet_reference.hpp
/// The window-synchronous fleet timeline builder, preserved verbatim from
/// before the indexed engine replaced it. It scans every node every window
/// — O(nodes x windows) even when nothing changes — which is exactly why
/// it was replaced, and exactly why it stays: it is the oracle the
/// equivalence tests pin the indexed window-loop engine against. It places
/// with the linear scans of placement_reference.hpp, never with the
/// shipped index-reading policies, so the same suites pin those too. Not
/// used on any production path.

namespace greennfv::orchestrator {

/// Builds the fleet history the pre-refactor engine produced. `spec` must
/// be a valid fleet scenario (fleet.enabled, schedulable cores). When
/// `policy_override` is non-null it is used instead of the scan for the
/// spec's named policy (the hook custom-policy equivalence tests use).
[[nodiscard]] FleetTimeline build_reference_timeline(
    const scenario::ScenarioSpec& spec,
    const ReferencePolicy* policy_override = nullptr);

}  // namespace greennfv::orchestrator
