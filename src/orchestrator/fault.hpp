#pragma once

#include <vector>

#include "scenario/scenario_spec.hpp"

/// \file fault.hpp
/// Deterministic fault injection for the fleet orchestrator.
///
/// A `FaultSchedule` is the complete failure history of a run — node
/// crashes, correlated rack outages, link failures, every matching repair,
/// and the wake-latency-storm windows — expanded once from the scenario
/// seed before the simulation starts, exactly like the arrival process.
/// Both fleet engines (the indexed engine and the frozen
/// window-synchronous reference) consume the same schedule in the same
/// order, so fault-enabled histories stay bit-identical across engines.
/// The schedule draws from its own salted RNG stream: enabling faults
/// never perturbs the arrival/holding/flow draws, and `fault.enabled=0`
/// histories are byte-identical to pre-fault goldens.

namespace greennfv::orchestrator {

/// One injected fault, applied at the start of its window (after
/// departures, before arrivals). Rack outages are expanded at build time
/// into per-node crash/repair events, so engines only see these four.
struct FaultEvent {
  enum class Kind { kNodeCrash, kNodeRepair, kLinkFail, kLinkRepair };
  Kind kind;
  int target;  ///< node id for crash/repair, link id for fail/repair
};

struct FaultSchedule {
  /// windows[w] = events applied at the start of window w, in injection
  /// order (repairs due this window first, then new faults).
  std::vector<std::vector<FaultEvent>> windows;
  /// wake_storm[w] != 0 marks window w as a wake-latency storm: every
  /// wake charge in it is multiplied by fault.wake_storm_factor.
  std::vector<char> wake_storm;
  // Injection totals (what the schedule put in, independent of what the
  // engines managed to recover).
  int node_crashes = 0;
  int node_repairs = 0;
  int link_fails = 0;
  int link_repairs = 0;
  int rack_outages = 0;
  int storm_windows = 0;

  [[nodiscard]] bool storm_active(int window) const {
    return window >= 0 &&
           window < static_cast<int>(wake_storm.size()) &&
           wake_storm[static_cast<std::size_t>(window)] != 0;
  }
};

/// Expands the scenario's `fault.*` block into the per-window schedule
/// for `horizon` windows over `num_nodes` nodes and `num_links` fabric
/// links (pass 0 when the topology is disabled; link failures then never
/// fire). Pure function of (spec.fault, spec.seed, horizon, num_nodes,
/// num_links): the builder tracks its own up/down sets so every emitted
/// event is applicable by construction — engines apply them blindly.
[[nodiscard]] FaultSchedule build_fault_schedule(
    const scenario::ScenarioSpec& spec, int horizon, int num_nodes,
    int num_links);

}  // namespace greennfv::orchestrator
