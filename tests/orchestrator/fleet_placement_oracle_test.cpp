#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "orchestrator/fleet_index.hpp"
#include "orchestrator/policy.hpp"
#include "tests/support/placement_reference.hpp"
#include "topology/path_table.hpp"
#include "topology/topology.hpp"

/// Seeded property check of the one placement path. A FleetIndex is driven
/// through random place, remove, sleep, wake, crash and repair sequences
/// (1-48 nodes, chains of 1-6 cores), and after every mutation each
/// registry policy's choose and consolidate must equal its reference scan
/// on view_of(index): without a fabric, and over a live leaf-spine
/// PathTable that carries every placed chain, so paths differ in
/// feasibility and bottleneck from node to node.

namespace greennfv::orchestrator {
namespace {

constexpr int kTrials = 64;
constexpr int kMutations = 80;

/// One randomly driven fleet: the index, and the fabric when there is one.
class RandomFleet {
 public:
  RandomFleet(std::uint64_t seed, bool fabric) : rng_(seed) {
    const int nodes = static_cast<int>(rng_.uniform_int(1, 48));
    const double capacities[] = {4.0, 6.5, 8.0, 14.0};
    index_ = std::make_unique<FleetIndex>(
        nodes, capacities[rng_.uniform_u64(4)]);
    if (!fabric) return;
    topology::TopologySpec spec;
    spec.enabled = true;
    spec.preset = "leaf-spine";
    spec.routing = rng_.bernoulli(0.5) ? "shortest" : "widest";
    spec.link_gbps = rng_.bernoulli(0.5) ? 12.0 : 40.0;
    spec.core_gbps = rng_.bernoulli(0.5) ? 30.0 : 100.0;
    topo_ = std::make_unique<topology::Topology>(
        topology::Topology::build(spec, nodes));
    net_ = std::make_unique<topology::PathTable>(
        *topo_, topology::routing_from_name(spec.routing), 0);
  }

  [[nodiscard]] const FleetIndex& index() const { return *index_; }
  [[nodiscard]] const topology::PathTable* net() const { return net_.get(); }
  [[nodiscard]] Rng& rng() { return rng_; }

  /// Applies one random mutation; returns its description, or "" when
  /// the drawn kind had nothing to act on.
  std::string mutate() {
    switch (rng_.uniform_u64(10)) {
      case 0: case 1: case 2: case 3: return place();
      case 4: case 5: return remove();
      case 6: return sleep();
      case 7: return wake();
      case 8: return crash();
      default: return repair();
    }
  }

 private:
  [[nodiscard]] int pick(const std::vector<int>& from) {
    return from[static_cast<std::size_t>(rng_.uniform_u64(from.size()))];
  }

  template <typename Pred>
  [[nodiscard]] std::vector<int> nodes_where(Pred pred) const {
    std::vector<int> nodes;
    for (int n = 0; n < index_->num_nodes(); ++n)
      if (pred(n)) nodes.push_back(n);
    return nodes;
  }

  /// A chain of 1-6 cores on a random up node with room, waking it if it
  /// sleeps. A third of the time the chain reuses a departed id, as a
  /// fault-evicted chain does, so hosted lists also leave id order.
  std::string place() {
    const double cores = static_cast<double>(rng_.uniform_int(1, 6));
    const std::vector<int> room = nodes_where([&](int n) {
      return !index_->down(n) && index_->committed_cores(n) + cores <=
                                     index_->capacity_cores() + 1e-9;
    });
    if (room.empty()) return "";
    const int node = pick(room);
    int id = next_id_;
    if (!free_ids_.empty() && rng_.bernoulli(0.33)) {
      const auto slot =
          static_cast<std::size_t>(rng_.uniform_u64(free_ids_.size()));
      id = free_ids_[slot];
      free_ids_.erase(free_ids_.begin() + static_cast<std::ptrdiff_t>(slot));
    } else {
      ++next_id_;
    }
    const double gbps = rng_.uniform(0.5, 12.0);
    if (net_ != nullptr && !net_->commit_chain(id, node, gbps)) {
      free_ids_.push_back(id);
      return "";
    }
    if (index_->asleep(node)) index_->wake(node);
    index_->place_chain(id, node, cores);
    live_.push_back(id);
    return "place chain " + std::to_string(id) + " (" +
           std::to_string(static_cast<int>(cores)) + " cores) on node " +
           std::to_string(node);
  }

  void evict(int id) {
    index_->remove_chain(id);
    if (net_ != nullptr) net_->release_chain(id);
    live_.erase(std::find(live_.begin(), live_.end(), id));
    free_ids_.push_back(id);
  }

  std::string remove() {
    if (live_.empty()) return "";
    const int id = pick(live_);
    evict(id);
    return "remove chain " + std::to_string(id);
  }

  std::string sleep() {
    const std::vector<int> idle = nodes_where([&](int n) {
      return !index_->down(n) && !index_->asleep(n) &&
             index_->hosted(n).empty();
    });
    if (idle.empty()) return "";
    const int node = pick(idle);
    index_->sleep(node);
    return "sleep node " + std::to_string(node);
  }

  std::string wake() {
    const std::vector<int> asleep =
        nodes_where([&](int n) { return index_->asleep(n); });
    if (asleep.empty()) return "";
    const int node = pick(asleep);
    index_->wake(node);
    return "wake node " + std::to_string(node);
  }

  std::string crash() {
    const std::vector<int> up =
        nodes_where([&](int n) { return !index_->down(n); });
    if (up.empty()) return "";
    const int node = pick(up);
    const std::vector<int> victims = index_->hosted(node);
    for (const int id : victims) evict(id);
    index_->crash(node);
    return "crash node " + std::to_string(node);
  }

  std::string repair() {
    const std::vector<int> down =
        nodes_where([&](int n) { return index_->down(n); });
    if (down.empty()) return "";
    const int node = pick(down);
    index_->repair(node);
    return "repair node " + std::to_string(node);
  }

  Rng rng_;
  std::unique_ptr<FleetIndex> index_;
  std::unique_ptr<topology::Topology> topo_;
  std::unique_ptr<topology::PathTable> net_;
  std::vector<int> live_;
  std::vector<int> free_ids_;
  int next_id_ = 0;
};

std::string plan_text(const std::vector<Migration>& plan) {
  std::string text = "[";
  for (const Migration& move : plan) {
    text += " " + std::to_string(move.chain) + ":" +
            std::to_string(move.from) + "->" + std::to_string(move.to);
  }
  return text + " ]";
}

/// Every registry policy against its scan on the fleet's current state;
/// the first disagreement, or "" when there is none.
std::string first_mismatch(RandomFleet& fleet) {
  const FleetIndex& index = fleet.index();
  const FleetView view = view_of(index);
  const double gbps = fleet.rng().uniform(0.5, 12.0);
  for (const std::string& name : fleet_policy_names()) {
    const auto policy = make_fleet_policy(name);
    const auto scan = make_reference_policy(name);
    for (int cores = 1; cores <= 7; ++cores) {
      const ArrivalRequest request{static_cast<double>(cores), gbps};
      const int got = policy->choose(index, request, fleet.net());
      const int want = scan->choose(view, request, fleet.net());
      if (got != want) {
        return name + " choose(" + std::to_string(cores) + " cores) = " +
               std::to_string(got) + ", scan = " + std::to_string(want);
      }
    }
    for (const double below : {0.3, 0.6, 1.01}) {
      const std::string got = plan_text(policy->consolidate(index, below));
      const std::string want = plan_text(scan->consolidate(view, below));
      if (got != want) {
        return name + " consolidate(" + std::to_string(below) + ") = " +
               got + ", scan = " + want;
      }
    }
  }
  return "";
}

void drive(bool fabric) {
  for (int trial = 0; trial < kTrials; ++trial) {
    RandomFleet fleet(0x0AC1E000ull + static_cast<std::uint64_t>(trial),
                      fabric);
    std::string history;
    ASSERT_EQ(first_mismatch(fleet), "") << "trial " << trial << " fresh";
    for (int m = 0; m < kMutations; ++m) {
      const std::string step = fleet.mutate();
      if (step.empty()) continue;
      history += "\n  " + step;
      ASSERT_EQ(first_mismatch(fleet), "")
          << "trial " << trial << ", " << fleet.index().num_nodes()
          << " nodes at " << fleet.index().capacity_cores()
          << " cores, after:" << history;
    }
  }
}

TEST(FleetPlacementOracle, IndexAnswersEqualTheScansWithoutAFabric) {
  drive(/*fabric=*/false);
}

TEST(FleetPlacementOracle, IndexAnswersEqualTheScansOnALiveLeafSpine) {
  drive(/*fabric=*/true);
}

}  // namespace
}  // namespace greennfv::orchestrator
