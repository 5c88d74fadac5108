#pragma once

#include <memory>
#include <string>
#include <vector>

/// \file policy.hpp
/// Online placement policies for the fleet orchestrator. They decide per
/// *arrival* against the live fleet state — committed cores, power states
/// — and the consolidating policy additionally proposes migrations that
/// drain underutilized nodes so power gating can put them to sleep. A
/// static deployment's chains arrive once, in id order, at window 0. This
/// is the joint placement + allocation lever the related work (Tajiki et
/// al., Sang et al.) identifies as where the energy/QoS trade-off is
/// decided.
///
/// Every policy answers from the engine's `FleetIndex`, read in place.
/// Each registry policy's rule also exists as a linear scan over a fleet
/// snapshot in tests/support/placement_reference.hpp: the oracle the
/// suites pin these answers against.

namespace greennfv::topology {
class PathTable;
}  // namespace greennfv::topology

namespace greennfv::orchestrator {

class FleetIndex;

/// One proposed chain move (consolidation).
struct Migration {
  int chain = 0;
  int from = 0;
  int to = 0;
};

/// Everything an arriving chain asks of the fleet — cores on a node plus
/// (when a topology is live) a routed path wide enough for its traffic.
struct ArrivalRequest {
  double cores = 0.0;
  double offered_gbps = 0.0;
};

class FleetPolicy {
 public:
  virtual ~FleetPolicy() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Node to host an arriving (or fault-evicted) chain, or -1 when
  /// nothing fits (the chain is rejected). `net` is the live
  /// routing/commitment table when the scenario runs a topology, null
  /// otherwise; only topology-aware policies read it. Whatever node is
  /// returned, the *engine* still admission-checks the path — a policy
  /// cannot oversubscribe a link, only pick badly. Choosing a sleeping
  /// node wakes it (the caller charges the wake latency/energy). A down
  /// node must never be chosen.
  [[nodiscard]] virtual int choose(const FleetIndex& index,
                                   const ArrivalRequest& request,
                                   const topology::PathTable* net) const = 0;

  /// Consolidation pass: migrations that drain nodes whose utilization
  /// sits below `below` when their chains fit on other awake occupied
  /// nodes. Default: none (only the consolidating policy migrates).
  [[nodiscard]] virtual std::vector<Migration> consolidate(
      const FleetIndex& index, double below) const {
    (void)index;
    (void)below;
    return {};
  }
};

/// Registry lookup by name ("first-fit", "least-loaded", "energy-bestfit",
/// "consolidate", "topology-aware-bestfit"); throws std::invalid_argument
/// listing the registry on unknown names.
[[nodiscard]] std::unique_ptr<FleetPolicy> make_fleet_policy(
    const std::string& name);

/// The names make_fleet_policy accepts: scenario::FleetSpec::policy_names(),
/// the one list, which scenario validation checks fleet.policy against
/// before anything runs.
[[nodiscard]] const std::vector<std::string>& fleet_policy_names();

}  // namespace greennfv::orchestrator
