#pragma once

#include "orchestrator/fleet.hpp"

/// \file fleet_reference.hpp
/// The window-synchronous fleet timeline builder, preserved verbatim from
/// before the indexed engine replaced it. It scans every node every window
/// — O(nodes x windows) even when nothing changes — which is exactly why
/// it was replaced, and exactly why it stays: it is the oracle the
/// equivalence tests pin the indexed window-loop engine against. Not used
/// on any production path.

namespace greennfv::orchestrator {

/// Builds the fleet history the pre-refactor engine produced. `spec` must
/// be a valid fleet scenario (fleet.enabled, schedulable cores). When
/// `policy_override` is non-null it is used instead of the spec's named
/// policy (the hook custom-policy equivalence tests use).
[[nodiscard]] FleetTimeline build_reference_timeline(
    const scenario::ScenarioSpec& spec,
    const FleetPolicy* policy_override = nullptr);

}  // namespace greennfv::orchestrator
