#include "orchestrator/policy.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "orchestrator/fleet_index.hpp"
#include "scenario/scenario_spec.hpp"
#include "telemetry/metrics.hpp"
#include "topology/path_table.hpp"

namespace greennfv::orchestrator {

namespace {

/// Counts one arrival or re-placement query with the candidates it
/// touched: at most one entry per occupancy level when the buckets
/// answer, every node when topology-aware-bestfit scores a fabric.
void count_query(std::uint64_t candidates) {
  static auto& c_queries =
      telemetry::metrics::counter("fleet.placement.queries");
  static auto& c_scanned =
      telemetry::metrics::counter("fleet.placement.candidates_scanned");
  c_queries.add();
  c_scanned.add(candidates);
}

/// Tightest fit among awake nodes via the occupancy buckets: the highest
/// bucket whose level still fits has minimal slack; min id breaks ties
/// (the reference scan's 1e-12-strict improvement keeps the first, i.e.
/// lowest, index among equal-slack nodes). Falls back to the lowest
/// asleep id, mirroring the scan's wake pass.
int indexed_bestfit(const FleetIndex& index, double cores) {
  count_query(index.awake_levels().num_levels());
  const int max_level = index.max_fitting_level(cores);
  if (max_level < 0) return -1;
  const int level = index.awake_levels().highest_nonempty(
      0, static_cast<std::size_t>(max_level));
  if (level >= 0)
    return index.awake_levels().min_id(static_cast<std::size_t>(level));
  return index.min_asleep_id();
}

class FirstFitPolicy final : public FleetPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "first-fit"; }

  [[nodiscard]] int choose(const FleetIndex& index,
                           const ArrivalRequest& request,
                           const topology::PathTable*) const override {
    count_query(index.awake_levels().num_levels());
    const int max_level = index.max_fitting_level(request.cores);
    if (max_level < 0) return -1;
    // Lowest node id that fits, awake or asleep (asleep nodes sit at
    // level 0, which fits whenever anything does).
    const int awake = index.awake_levels().min_id_in_range(
        0, static_cast<std::size_t>(max_level));
    const int asleep = index.min_asleep_id();
    if (awake < 0) return asleep;
    if (asleep < 0) return awake;
    return std::min(awake, asleep);
  }
};

class LeastLoadedPolicy final : public FleetPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "least-loaded"; }

  [[nodiscard]] int choose(const FleetIndex& index,
                           const ArrivalRequest& request,
                           const topology::PathTable*) const override {
    count_query(index.awake_levels().num_levels());
    const int max_level = index.max_fitting_level(request.cores);
    if (max_level < 0) return -1;
    const int lowest = index.awake_levels().lowest_nonempty(
        0, static_cast<std::size_t>(max_level));
    const int asleep = index.min_asleep_id();
    if (asleep >= 0) {
      // Asleep nodes carry zero committed cores: they tie with awake
      // level 0 (lowest id wins — the scan's strict-improvement keeps
      // the first index) and beat any busier node.
      if (lowest == 0)
        return std::min(index.awake_levels().min_id(0), asleep);
      return asleep;
    }
    return lowest < 0
               ? -1
               : index.awake_levels().min_id(static_cast<std::size_t>(lowest));
  }
};

class EnergyBestFitPolicy final : public FleetPolicy {
 public:
  [[nodiscard]] std::string name() const override {
    return "energy-bestfit";
  }

  [[nodiscard]] int choose(const FleetIndex& index,
                           const ArrivalRequest& request,
                           const topology::PathTable*) const override {
    return indexed_bestfit(index, request.cores);
  }
};

class ConsolidatePolicy final : public FleetPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "consolidate"; }

  [[nodiscard]] int choose(const FleetIndex& index,
                           const ArrivalRequest& request,
                           const topology::PathTable*) const override {
    return indexed_bestfit(index, request.cores);
  }

  [[nodiscard]] std::vector<Migration> consolidate(
      const FleetIndex& index, double below) const override {
    const BucketQueue& awake = index.awake_levels();
    const double cap = index.capacity_cores();
    // Donor candidates in (utilization asc, id asc) order = (bucket
    // level asc, ordered ids within): utilization is committed/capacity
    // and committed equals the bucket level exactly. Level 0 nodes are
    // empty (never donors); past the `below` threshold no higher level
    // qualifies either.
    for (std::size_t level = 1; level < awake.num_levels(); ++level) {
      if (!(static_cast<double>(level) / cap < below)) break;
      for (const int donor : awake.at(level)) {
        std::vector<Migration> plan = try_drain(index, donor);
        if (!plan.empty()) return plan;
      }
    }
    return {};
  }

 private:
  /// Drain-or-nothing plan for one donor against the live index, exactly
  /// mirroring the reference scan's overlay of tentative receivers:
  /// non-overlaid candidates come from the live buckets (highest
  /// fitting level = tightest fit, min id on ties), overlaid receivers
  /// compete at their effective (committed + taken) level.
  [[nodiscard]] static std::vector<Migration> try_drain(
      const FleetIndex& index, int donor) {
    const BucketQueue& awake = index.awake_levels();
    const double cap = index.capacity_cores();
    std::vector<std::pair<int, double>> taken;  // (receiver, cores so far)
    std::vector<Migration> plan;
    for (const int chain : index.hosted(donor)) {
      const double cores = index.chain_cores(chain);
      const int max_level = index.max_fitting_level(cores);
      int target = -1;
      double target_eff = -1.0;
      // Highest fitting bucket, skipping the donor and already-
      // overlaid receivers; level >= 1 keeps only awake occupied nodes.
      for (int level = std::min(max_level,
                                static_cast<int>(awake.num_levels()) - 1);
           level >= 1 && target < 0; --level) {
        for (const int id : awake.at(static_cast<std::size_t>(level))) {
          if (id == donor) continue;
          bool overlaid = false;
          for (const auto& [node, extra] : taken) {
            if (node == id) {
              overlaid = true;
              break;
            }
          }
          if (overlaid) continue;
          target = id;
          target_eff = static_cast<double>(level);
          break;
        }
      }
      // Overlaid receivers at their effective load: tightest fit wins,
      // min id on effective-level ties (the scan keeps the first index).
      for (const auto& [node, extra] : taken) {
        const double eff = index.committed_cores(node) + extra;
        if (eff + cores > cap + 1e-9) continue;
        if (target < 0 || eff > target_eff ||
            (eff == target_eff && node < target)) {
          target = node;
          target_eff = eff;
        }
      }
      if (target < 0) return {};  // not drainable — try the next donor
      bool found = false;
      for (auto& [node, extra] : taken) {
        if (node == target) {
          extra += cores;
          found = true;
          break;
        }
      }
      if (!found) taken.emplace_back(target, cores);
      plan.push_back({chain, index.chain_node(chain), target});
    }
    return plan;
  }
};

/// Joint node + path argmin. Scores every candidate with one routing
/// pass (preview_hosts): among nodes that fit the cores AND have a
/// feasible path, minimize (asleep, hops asc, bottleneck desc, slack asc,
/// id asc) — awake nodes first (waking costs latency and watts), then the
/// cheapest path, widest remaining headroom on hop ties, tightest core
/// fit after that. This is what makes bestfit that saves node watts but
/// crosses the core measurably lose: an extra hop outranks core slack.
class TopologyAwareBestFitPolicy final : public FleetPolicy {
 public:
  [[nodiscard]] std::string name() const override {
    return "topology-aware-bestfit";
  }

  /// Without a fabric (topology.enabled=0) this is energy-bestfit, so
  /// the no-topology determinism and golden suites exercise this policy
  /// too. With one, every node is a candidate: the walk reads the index
  /// in id order with the reference scan's arithmetic — a down node never
  /// fits, slack is (capacity - committed) - cores, and only a 1e-12
  /// strict improvement wins, so equal slack keeps the lower id.
  [[nodiscard]] int choose(const FleetIndex& index,
                           const ArrivalRequest& request,
                           const topology::PathTable* net) const override {
    if (net == nullptr) return indexed_bestfit(index, request.cores);
    count_query(static_cast<std::uint64_t>(index.num_nodes()));
    const std::vector<topology::PathView> paths =
        net->preview_hosts(request.offered_gbps);
    const double capacity = index.capacity_cores();
    int chosen = -1;
    bool chosen_asleep = false;
    topology::PathView chosen_path;
    double chosen_slack = 0.0;
    for (int n = 0; n < index.num_nodes(); ++n) {
      if (index.down(n)) continue;
      const double committed = index.committed_cores(n);
      if (!(committed + request.cores <= capacity + 1e-9)) continue;
      const topology::PathView& path = paths[static_cast<std::size_t>(n)];
      if (!path.feasible) continue;
      const bool asleep = index.asleep(n);
      const double slack = (capacity - committed) - request.cores;
      const bool wins = [&] {
        if (chosen < 0) return true;
        if (asleep != chosen_asleep) return chosen_asleep;
        if (path.hops != chosen_path.hops)
          return path.hops < chosen_path.hops;
        if (path.bottleneck_kbps != chosen_path.bottleneck_kbps)
          return path.bottleneck_kbps > chosen_path.bottleneck_kbps;
        return slack < chosen_slack - 1e-12;
      }();
      if (wins) {
        chosen = n;
        chosen_asleep = asleep;
        chosen_path = path;
        chosen_slack = slack;
      }
    }
    return chosen;
  }
};

}  // namespace

const std::vector<std::string>& fleet_policy_names() {
  return scenario::FleetSpec::policy_names();
}

std::unique_ptr<FleetPolicy> make_fleet_policy(const std::string& name) {
  if (name == "first-fit") return std::make_unique<FirstFitPolicy>();
  if (name == "least-loaded") return std::make_unique<LeastLoadedPolicy>();
  if (name == "energy-bestfit")
    return std::make_unique<EnergyBestFitPolicy>();
  if (name == "consolidate") return std::make_unique<ConsolidatePolicy>();
  if (name == "topology-aware-bestfit")
    return std::make_unique<TopologyAwareBestFitPolicy>();
  std::string known;
  for (const auto& entry : fleet_policy_names()) {
    if (!known.empty()) known += ", ";
    known += entry;
  }
  throw std::invalid_argument("orchestrator: unknown fleet policy '" +
                              name + "' (known: " + known + ")");
}

}  // namespace greennfv::orchestrator
