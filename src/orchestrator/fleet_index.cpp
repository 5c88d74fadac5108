#include "orchestrator/fleet_index.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "telemetry/metrics.hpp"

namespace greennfv::orchestrator {

namespace {

// Flight-recorder bucket-queue op counters. Function-local statics keep
// the registry lookup off the hot path; Counter::add is a relaxed no-op
// until metrics are runtime-enabled.
telemetry::metrics::Counter& c_place() {
  static auto& c = telemetry::metrics::counter("fleet.index.place");
  return c;
}
telemetry::metrics::Counter& c_remove() {
  static auto& c = telemetry::metrics::counter("fleet.index.remove");
  return c;
}
telemetry::metrics::Counter& c_wake() {
  static auto& c = telemetry::metrics::counter("fleet.index.wake");
  return c;
}
telemetry::metrics::Counter& c_sleep() {
  static auto& c = telemetry::metrics::counter("fleet.index.sleep");
  return c;
}

/// Buckets cover the integral committed-core range 0..floor(capacity);
/// one spare level absorbs a hypothetical custom policy that overcommits
/// (the registry policies never do — fits() forbids it).
std::size_t bucket_count(double capacity) {
  return static_cast<std::size_t>(std::floor(capacity + 1e-9)) + 2;
}

}  // namespace

FleetIndex::FleetIndex(int num_nodes, double capacity_cores)
    : capacity_(capacity_cores),
      awake_(bucket_count(capacity_cores), &arena_),
      asleep_(ArenaAllocator<int>(&arena_)),
      committed_(static_cast<std::size_t>(num_nodes), 0.0),
      node_level_(static_cast<std::size_t>(num_nodes), 0),
      asleep_flags_(static_cast<std::size_t>(num_nodes), 0),
      down_flags_(static_cast<std::size_t>(num_nodes), 0),
      hosted_(static_cast<std::size_t>(num_nodes)) {
  GNFV_REQUIRE(num_nodes > 0, "FleetIndex: num_nodes must be > 0");
  GNFV_REQUIRE(capacity_cores > 0.0, "FleetIndex: capacity must be > 0");
  // Every node starts awake and empty: all of level 0.
  for (int n = 0; n < num_nodes; ++n) awake_.insert(0, n);
}

void FleetIndex::set_level(int node, double committed) {
  committed_[static_cast<std::size_t>(node)] = committed;
  // Committed cores are integral by construction (one core per NF);
  // llround only guards against accumulated representation surprises.
  auto level = static_cast<std::size_t>(std::llround(committed));
  if (level >= awake_.num_levels()) level = awake_.num_levels() - 1;
  auto& stored = node_level_[static_cast<std::size_t>(node)];
  if (asleep(node)) {
    // Asleep nodes are not in the awake buckets; remember the level for
    // re-insertion on wake (always 0 in practice).
    stored = level;
    return;
  }
  if (stored != level) {
    awake_.move(stored, level, node);
    stored = level;
  }
}

void FleetIndex::place_chain(int chain, int node, double cores) {
  const auto id = static_cast<std::size_t>(chain);
  if (id >= chain_node_.size()) {
    chain_node_.resize(id + 1, -1);
    chain_cores_.resize(id + 1, 0.0);
  }
  GNFV_ASSERT(chain_node_[id] < 0, "FleetIndex: chain already placed");
  c_place().add();
  chain_node_[id] = node;
  chain_cores_[id] = cores;
  hosted_[static_cast<std::size_t>(node)].push_back(chain);
  set_level(node, committed_[static_cast<std::size_t>(node)] + cores);
}

void FleetIndex::remove_chain(int chain) {
  const auto id = static_cast<std::size_t>(chain);
  const int node = chain_node_[id];
  GNFV_ASSERT(node >= 0, "FleetIndex: chain not placed");
  c_remove().add();
  chain_node_[id] = -1;
  auto& hosted = hosted_[static_cast<std::size_t>(node)];
  hosted.erase(std::find(hosted.begin(), hosted.end(), chain));
  set_level(node, committed_[static_cast<std::size_t>(node)] -
                      chain_cores_[id]);
}

void FleetIndex::wake(int node) {
  auto& flag = asleep_flags_[static_cast<std::size_t>(node)];
  GNFV_ASSERT(flag != 0, "FleetIndex::wake: node is awake");
  c_wake().add();
  flag = 0;
  asleep_.erase(node);
  awake_.insert(level_of(node), node);
}

void FleetIndex::sleep(int node) {
  auto& flag = asleep_flags_[static_cast<std::size_t>(node)];
  GNFV_ASSERT(flag == 0, "FleetIndex::sleep: node already asleep");
  GNFV_ASSERT(hosted_[static_cast<std::size_t>(node)].empty(),
              "FleetIndex::sleep: node still hosts chains");
  c_sleep().add();
  flag = 1;
  awake_.erase(level_of(node), node);
  asleep_.insert(node);
}

void FleetIndex::crash(int node) {
  auto& flag = down_flags_[static_cast<std::size_t>(node)];
  GNFV_ASSERT(flag == 0, "FleetIndex::crash: node already down");
  GNFV_ASSERT(hosted_[static_cast<std::size_t>(node)].empty(),
              "FleetIndex::crash: evict hosted chains before crashing");
  flag = 1;
  auto& asleep_flag = asleep_flags_[static_cast<std::size_t>(node)];
  if (asleep_flag != 0) {
    asleep_flag = 0;
    asleep_.erase(node);
  } else {
    awake_.erase(level_of(node), node);
  }
}

void FleetIndex::repair(int node) {
  auto& flag = down_flags_[static_cast<std::size_t>(node)];
  GNFV_ASSERT(flag != 0, "FleetIndex::repair: node is up");
  flag = 0;
  // A repaired node comes back awake and empty (committed 0 = level 0).
  GNFV_ASSERT(committed_[static_cast<std::size_t>(node)] == 0.0,
              "FleetIndex::repair: down node has committed cores");
  node_level_[static_cast<std::size_t>(node)] = 0;
  awake_.insert(0, node);
}

void FleetIndex::sort_hosted(int node) {
  auto& hosted = hosted_[static_cast<std::size_t>(node)];
  std::sort(hosted.begin(), hosted.end());
}

int FleetIndex::max_fitting_level(double cores) const {
  // The policies' fits() tolerance and arithmetic: a node at integral
  // level L fits iff L + cores <= capacity + 1e-9.
  for (int level = static_cast<int>(awake_.num_levels()) - 1; level >= 0;
       --level) {
    if (static_cast<double>(level) + cores <= capacity_ + 1e-9)
      return level;
  }
  return -1;
}

}  // namespace greennfv::orchestrator
