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
/// answer, every node when a view is snapshotted.
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
/// asleep id, mirroring energy_bestfit_choose's wake pass.
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

  [[nodiscard]] int choose(const FleetView& view,
                           const ArrivalRequest& request,
                           const topology::PathTable*) const override {
    for (std::size_t n = 0; n < view.nodes.size(); ++n)
      if (view.nodes[n].fits(request.cores)) return static_cast<int>(n);
    return -1;
  }

  [[nodiscard]] int choose_indexed(
      const FleetIndex& index, const ArrivalRequest& request,
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

  [[nodiscard]] int choose(const FleetView& view,
                           const ArrivalRequest& request,
                           const topology::PathTable*) const override {
    int chosen = -1;
    double best_load = 1e300;
    for (std::size_t n = 0; n < view.nodes.size(); ++n) {
      const NodeView& node = view.nodes[n];
      if (!node.fits(request.cores)) continue;
      if (node.utilization() < best_load - 1e-12) {
        best_load = node.utilization();
        chosen = static_cast<int>(n);
      }
    }
    return chosen;
  }

  [[nodiscard]] int choose_indexed(
      const FleetIndex& index, const ArrivalRequest& request,
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

/// Tightest fit among *awake* nodes; a sleeping node is woken only when no
/// awake node has room — the fewest nodes burn more than sleep power.
int energy_bestfit_choose(const FleetView& view, double cores,
                          bool allow_wake) {
  int chosen = -1;
  double best_slack = 1e300;
  for (std::size_t n = 0; n < view.nodes.size(); ++n) {
    const NodeView& node = view.nodes[n];
    if (node.asleep || !node.fits(cores)) continue;
    const double slack = node.free_cores() - cores;
    if (slack < best_slack - 1e-12) {
      best_slack = slack;
      chosen = static_cast<int>(n);
    }
  }
  if (chosen >= 0 || !allow_wake) return chosen;
  for (std::size_t n = 0; n < view.nodes.size(); ++n)
    if (view.nodes[n].asleep && view.nodes[n].fits(cores))
      return static_cast<int>(n);
  return -1;
}

class EnergyBestFitPolicy final : public FleetPolicy {
 public:
  [[nodiscard]] std::string name() const override {
    return "energy-bestfit";
  }

  [[nodiscard]] int choose(const FleetView& view,
                           const ArrivalRequest& request,
                           const topology::PathTable*) const override {
    return energy_bestfit_choose(view, request.cores, /*allow_wake=*/true);
  }

  [[nodiscard]] int choose_indexed(
      const FleetIndex& index, const ArrivalRequest& request,
      const topology::PathTable*) const override {
    return indexed_bestfit(index, request.cores);
  }
};

class ConsolidatePolicy final : public FleetPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "consolidate"; }

  [[nodiscard]] int choose(const FleetView& view,
                           const ArrivalRequest& request,
                           const topology::PathTable*) const override {
    return energy_bestfit_choose(view, request.cores, /*allow_wake=*/true);
  }

  [[nodiscard]] int choose_indexed(
      const FleetIndex& index, const ArrivalRequest& request,
      const topology::PathTable*) const override {
    return indexed_bestfit(index, request.cores);
  }

  [[nodiscard]] std::vector<Migration> consolidate(
      const FleetView& view, double below) const override {
    // Candidate donors, least-utilized first (the cheapest node to empty).
    std::vector<std::size_t> donors;
    for (std::size_t n = 0; n < view.nodes.size(); ++n) {
      const NodeView& node = view.nodes[n];
      if (node.occupied() && !node.asleep && node.utilization() < below)
        donors.push_back(n);
    }
    std::sort(donors.begin(), donors.end(),
              [&view](std::size_t a, std::size_t b) {
                const double ua = view.nodes[a].utilization();
                const double ub = view.nodes[b].utilization();
                if (ua != ub) return ua < ub;
                return a < b;
              });

    for (const std::size_t donor : donors) {
      // Drain-or-nothing: a partial move keeps the donor awake and saves
      // nothing. Try to best-fit every chain onto the other awake occupied
      // nodes (never wake a sleeping node to consolidate into).
      std::vector<double> free(view.nodes.size());
      for (std::size_t n = 0; n < view.nodes.size(); ++n)
        free[n] = view.nodes[n].free_cores();

      std::vector<Migration> plan;
      bool drained = true;
      for (const ChainLoad& chain : view.nodes[donor].chains) {
        int target = -1;
        double best_slack = 1e300;
        for (std::size_t n = 0; n < view.nodes.size(); ++n) {
          if (n == donor) continue;
          const NodeView& node = view.nodes[n];
          if (node.asleep || !node.occupied()) continue;
          const double slack = free[n] - chain.cores;
          if (slack < -1e-9) continue;
          if (slack < best_slack - 1e-12) {
            best_slack = slack;
            target = static_cast<int>(n);
          }
        }
        if (target < 0) {
          drained = false;
          break;
        }
        free[static_cast<std::size_t>(target)] -= chain.cores;
        plan.push_back(
            {chain.id, static_cast<int>(donor), target});
      }
      // One drained donor per window keeps churn (and migration downtime)
      // bounded; the next window picks up the next candidate.
      if (drained && !plan.empty()) return plan;
    }
    return {};
  }

  [[nodiscard]] std::vector<Migration> consolidate_indexed(
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
  /// mirroring the view-based planner's overlay of tentative receivers:
  /// non-overlaid candidates come from the snapshot buckets (highest
  /// fitting level = tightest fit, min id on ties), overlaid receivers
  /// compete at their effective (snapshot + taken) level.
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
      // Highest fitting snapshot bucket, skipping the donor and already-
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

  /// Without a fabric (topology.enabled=0) both variants are
  /// energy-bestfit, so the no-topology determinism and golden suites
  /// exercise this policy too.
  [[nodiscard]] int choose(const FleetView& view,
                           const ArrivalRequest& request,
                           const topology::PathTable* net) const override {
    if (net == nullptr)
      return energy_bestfit_choose(view, request.cores, /*allow_wake=*/true);
    const std::vector<topology::PathView> paths =
        net->preview_hosts(request.offered_gbps);
    int chosen = -1;
    bool chosen_asleep = false;
    topology::PathView chosen_path;
    double chosen_slack = 0.0;
    for (std::size_t n = 0; n < view.nodes.size(); ++n) {
      const NodeView& node = view.nodes[n];
      if (!node.fits(request.cores)) continue;
      const topology::PathView& path = paths[n];
      if (!path.feasible) continue;
      const double slack = node.free_cores() - request.cores;
      const bool wins = [&] {
        if (chosen < 0) return true;
        if (node.asleep != chosen_asleep) return chosen_asleep;
        if (path.hops != chosen_path.hops)
          return path.hops < chosen_path.hops;
        if (path.bottleneck_kbps != chosen_path.bottleneck_kbps)
          return path.bottleneck_kbps > chosen_path.bottleneck_kbps;
        // Strict improvement only: equal slack keeps the lower id.
        return slack < chosen_slack - 1e-12;
      }();
      if (wins) {
        chosen = static_cast<int>(n);
        chosen_asleep = node.asleep;
        chosen_path = path;
        chosen_slack = slack;
      }
    }
    return chosen;
  }

  [[nodiscard]] int choose_indexed(
      const FleetIndex& index, const ArrivalRequest& request,
      const topology::PathTable* net) const override {
    if (net != nullptr) return FleetPolicy::choose_indexed(index, request, net);
    return indexed_bestfit(index, request.cores);
  }
};

}  // namespace

int FleetPolicy::choose_indexed(const FleetIndex& index,
                                const ArrivalRequest& request,
                                const topology::PathTable* net) const {
  // Snapshot the fleet into the classic view and run the linear scan.
  count_query(static_cast<std::uint64_t>(index.num_nodes()));
  return choose(index.materialize_view(), request, net);
}

std::vector<Migration> FleetPolicy::consolidate_indexed(
    const FleetIndex& index, double below) const {
  return consolidate(index.materialize_view(), below);
}

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
