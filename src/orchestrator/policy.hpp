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

namespace greennfv::topology {
class PathTable;
}  // namespace greennfv::topology

namespace greennfv::orchestrator {

class FleetIndex;

/// One hosted chain from the policy's perspective.
struct ChainLoad {
  int id = 0;
  double cores = 0.0;
  double offered_gbps = 0.0;
};

/// Live state of one node as the policies see it.
struct NodeView {
  double capacity_cores = 0.0;
  double committed_cores = 0.0;
  bool asleep = false;
  /// Crashed/out-of-service (fault injection). Down nodes are also
  /// presented at capacity 0, so fits() already masks them for every
  /// registry policy; the flag is informational for custom policies.
  bool down = false;
  std::vector<ChainLoad> chains;

  [[nodiscard]] bool occupied() const { return !chains.empty(); }
  [[nodiscard]] double free_cores() const {
    return capacity_cores - committed_cores;
  }
  [[nodiscard]] double utilization() const {
    return capacity_cores > 0.0 ? committed_cores / capacity_cores : 0.0;
  }
  [[nodiscard]] bool fits(double cores) const {
    return committed_cores + cores <= capacity_cores + 1e-9;
  }
};

struct FleetView {
  std::vector<NodeView> nodes;
};

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
  /// node wakes it (the caller charges the wake latency/energy).
  [[nodiscard]] virtual int choose(const FleetView& view,
                                   const ArrivalRequest& request,
                                   const topology::PathTable* net) const = 0;

  /// Consolidation pass: migrations that drain nodes whose utilization
  /// sits below `below` when their chains fit on other awake occupied
  /// nodes. Default: none (only the consolidating policy migrates).
  [[nodiscard]] virtual std::vector<Migration> consolidate(
      const FleetView& view, double below) const {
    (void)view;
    (void)below;
    return {};
  }

  /// Index-backed variants the fleet history build calls on the hot
  /// path. The registry policies answer straight from the occupancy
  /// buckets in O(core levels) — provably equal to their linear-scan
  /// choose()/consolidate() because committed cores are integral (see
  /// fleet_index.hpp). The defaults materialize a FleetView and defer to
  /// the scan variants: custom policies use them unchanged, and
  /// topology-aware-bestfit does while a fabric is live, because its
  /// joint path-and-node choice scores every candidate's path.
  [[nodiscard]] virtual int choose_indexed(
      const FleetIndex& index, const ArrivalRequest& request,
      const topology::PathTable* net) const;
  [[nodiscard]] virtual std::vector<Migration> consolidate_indexed(
      const FleetIndex& index, double below) const;
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
