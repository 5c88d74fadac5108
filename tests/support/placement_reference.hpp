#pragma once

#include <memory>
#include <string>
#include <vector>

#include "orchestrator/policy.hpp"

/// \file placement_reference.hpp
/// The placement oracle: each registry policy's rule as a linear scan over
/// a snapshot of the fleet, the form the policies were first written in.
/// The shipped policies answer from the FleetIndex in place
/// (src/orchestrator/policy.cpp). The reference fleet engine places with
/// these scans, so every engine == reference suite pins the index answers
/// against them, and the placement oracle suite compares the two after
/// every mutation of a randomly driven index. Not used on any production
/// path.

namespace greennfv::orchestrator {

class FleetIndex;

/// One hosted chain as the scans see it.
struct ChainLoad {
  int id = 0;
  double cores = 0.0;
};

/// Live state of one node as the scans see it.
struct NodeView {
  double capacity_cores = 0.0;
  double committed_cores = 0.0;
  bool asleep = false;
  /// Crashed/out-of-service (fault injection). Down nodes are also
  /// presented at capacity 0, so fits() already masks them for every
  /// scan; the flag is informational for custom policies.
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

/// A placement rule as a scan over a FleetView: the reference counterpart
/// of FleetPolicy, with the same contract for `choose` and `consolidate`.
class ReferencePolicy {
 public:
  virtual ~ReferencePolicy() = default;

  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual int choose(const FleetView& view,
                                   const ArrivalRequest& request,
                                   const topology::PathTable* net) const = 0;
  /// Default: no moves (only the consolidating policy migrates).
  [[nodiscard]] virtual std::vector<Migration> consolidate(
      const FleetView& view, double below) const {
    (void)view;
    (void)below;
    return {};
  }
};

/// The scan behind the registry policy `name`; throws
/// std::invalid_argument on a name make_fleet_policy does not know.
[[nodiscard]] std::unique_ptr<ReferencePolicy> make_reference_policy(
    const std::string& name);

/// `index` as the scans see it. Down nodes are presented at capacity 0
/// and never asleep, so every fits() gate masks them; each node lists its
/// chains in hosted-list order.
[[nodiscard]] FleetView view_of(const FleetIndex& index);

}  // namespace greennfv::orchestrator
