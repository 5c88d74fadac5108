#include "tests/support/placement_reference.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "orchestrator/fleet_index.hpp"
#include "topology/path_table.hpp"

// The scans below are the registry policies as they were written before
// the index answered them: same iteration order, same tolerances, same
// strict 1e-12 improvements. Do not "optimize" them — their value is
// being the plain statement of each rule the index answers are proven
// equal to.

namespace greennfv::orchestrator {

namespace {

class FirstFitScan final : public ReferencePolicy {
 public:
  [[nodiscard]] std::string name() const override { return "first-fit"; }

  [[nodiscard]] int choose(const FleetView& view,
                           const ArrivalRequest& request,
                           const topology::PathTable*) const override {
    for (std::size_t n = 0; n < view.nodes.size(); ++n)
      if (view.nodes[n].fits(request.cores)) return static_cast<int>(n);
    return -1;
  }
};

class LeastLoadedScan final : public ReferencePolicy {
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

class EnergyBestFitScan final : public ReferencePolicy {
 public:
  [[nodiscard]] std::string name() const override {
    return "energy-bestfit";
  }

  [[nodiscard]] int choose(const FleetView& view,
                           const ArrivalRequest& request,
                           const topology::PathTable*) const override {
    return energy_bestfit_choose(view, request.cores, /*allow_wake=*/true);
  }
};

class ConsolidateScan final : public ReferencePolicy {
 public:
  [[nodiscard]] std::string name() const override { return "consolidate"; }

  [[nodiscard]] int choose(const FleetView& view,
                           const ArrivalRequest& request,
                           const topology::PathTable*) const override {
    return energy_bestfit_choose(view, request.cores, /*allow_wake=*/true);
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
};

/// Joint node + path argmin over one routing pass (preview_hosts): among
/// nodes that fit the cores AND have a feasible path, minimize (asleep,
/// hops asc, bottleneck desc, slack asc, id asc).
class TopologyAwareBestFitScan final : public ReferencePolicy {
 public:
  [[nodiscard]] std::string name() const override {
    return "topology-aware-bestfit";
  }

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
};

}  // namespace

std::unique_ptr<ReferencePolicy> make_reference_policy(
    const std::string& name) {
  if (name == "first-fit") return std::make_unique<FirstFitScan>();
  if (name == "least-loaded") return std::make_unique<LeastLoadedScan>();
  if (name == "energy-bestfit") return std::make_unique<EnergyBestFitScan>();
  if (name == "consolidate") return std::make_unique<ConsolidateScan>();
  if (name == "topology-aware-bestfit")
    return std::make_unique<TopologyAwareBestFitScan>();
  throw std::invalid_argument("placement reference: unknown fleet policy '" +
                              name + "'");
}

FleetView view_of(const FleetIndex& index) {
  FleetView view;
  view.nodes.reserve(static_cast<std::size_t>(index.num_nodes()));
  for (int n = 0; n < index.num_nodes(); ++n) {
    NodeView node;
    node.down = index.down(n);
    node.capacity_cores = node.down ? 0.0 : index.capacity_cores();
    node.committed_cores = index.committed_cores(n);
    node.asleep = index.asleep(n);
    for (const int id : index.hosted(n))
      node.chains.push_back({id, index.chain_cores(id)});
    view.nodes.push_back(std::move(node));
  }
  return view;
}

}  // namespace greennfv::orchestrator
