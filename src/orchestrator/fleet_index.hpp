#pragma once

#include <vector>

#include "common/arena.hpp"
#include "common/bucket_queue.hpp"

/// \file fleet_index.hpp
/// Incrementally-maintained fleet state for the fleet history build:
/// committed cores, hosted chain lists, and power flags per node, plus an
/// occupancy-bucketed runqueue (awake nodes keyed by integral committed
/// cores) and an ordered asleep-id set. Every placement policy reads it
/// in place: the network-blind ones in O(levels) from the buckets,
/// topology-aware-bestfit on a fabric by walking the per-node state in id
/// order. Nothing copies it; the test-side placement oracle
/// (tests/support/placement_reference.hpp) builds its node views from
/// these accessors.
///
/// The bucketing is exact, not approximate: every chain commits an
/// integral core count (one core per NF), so two nodes compare equal on
/// utilization/slack iff they sit in the same bucket, and the registry
/// policies' epsilon tie-breaks (1e-12 improvements over values that
/// differ by >= 1 core) never bind. That is what lets bucket argmin /
/// argmax queries reproduce the reference engine's linear scans
/// bit-for-bit.

namespace greennfv::orchestrator {

class FleetIndex {
 public:
  FleetIndex(int num_nodes, double capacity_cores);

  // --- engine mutations ----------------------------------------------------
  /// Registers `chain` on `node` (appends to the hosted list). The chain's
  /// cores are remembered for removal and consolidation planning.
  void place_chain(int chain, int node, double cores);
  /// Removes `chain` from its current node.
  void remove_chain(int chain);
  /// Power transitions (asleep nodes always have zero committed cores).
  void wake(int node);
  void sleep(int node);
  /// Fault transitions. crash() takes the node out of service: it leaves
  /// both the awake buckets and the asleep set, so no bucket query can
  /// ever pick it, and a per-node walk skips it on down(). The caller
  /// must evict the hosted chains first. repair() returns it to service
  /// awake and empty.
  void crash(int node);
  void repair(int node);
  [[nodiscard]] bool down(int node) const {
    return down_flags_[static_cast<std::size_t>(node)] != 0;
  }
  /// Restores the sorted-hosted-list discipline after migrations.
  void sort_hosted(int node);

  // --- node state ----------------------------------------------------------
  [[nodiscard]] int num_nodes() const {
    return static_cast<int>(committed_.size());
  }
  [[nodiscard]] double capacity_cores() const { return capacity_; }
  [[nodiscard]] double committed_cores(int node) const {
    return committed_[static_cast<std::size_t>(node)];
  }
  [[nodiscard]] bool asleep(int node) const {
    return asleep_flags_[static_cast<std::size_t>(node)] != 0;
  }
  [[nodiscard]] const std::vector<int>& hosted(int node) const {
    return hosted_[static_cast<std::size_t>(node)];
  }
  [[nodiscard]] int chain_node(int chain) const {
    return chain_node_[static_cast<std::size_t>(chain)];
  }
  [[nodiscard]] double chain_cores(int chain) const {
    return chain_cores_[static_cast<std::size_t>(chain)];
  }

  // --- policy queries ------------------------------------------------------
  /// Awake nodes bucketed by integral committed cores, ordered ids within.
  [[nodiscard]] const BucketQueue& awake_levels() const { return awake_; }
  /// Lowest asleep node id (asleep nodes always sit at committed == 0),
  /// or -1 when none sleeps.
  [[nodiscard]] int min_asleep_id() const {
    return asleep_.empty() ? -1 : *asleep_.begin();
  }
  /// Largest integral level L with L + cores <= capacity + 1e-9 (the
  /// policies' fits() tolerance), or -1 when nothing fits.
  [[nodiscard]] int max_fitting_level(double cores) const;

  /// Bytes the bucket/runqueue arena has reserved from the OS — the
  /// flight recorder's fleet.index.arena_bytes gauge.
  [[nodiscard]] std::size_t arena_bytes() const {
    return arena_.reserved_bytes();
  }

 private:
  [[nodiscard]] std::size_t level_of(int node) const {
    return node_level_[static_cast<std::size_t>(node)];
  }
  void set_level(int node, double committed);

  double capacity_;
  Arena arena_;
  BucketQueue awake_;
  BucketQueue::IdSet asleep_;
  std::vector<double> committed_;
  std::vector<std::size_t> node_level_;
  std::vector<char> asleep_flags_;
  std::vector<char> down_flags_;
  std::vector<std::vector<int>> hosted_;
  // Per-chain registry, indexed by chain id (grows on demand).
  std::vector<int> chain_node_;
  std::vector<double> chain_cores_;
};

}  // namespace greennfv::orchestrator
