#pragma once

#include <cstdint>
#include <vector>

#include "topology/topology.hpp"

/// \file path_table.hpp
/// Routing + committed-bandwidth accounting over a `Topology`. The fleet
/// engines consult one `PathTable` per timeline build: on arrival a
/// chain's offered rate is routed ingress→host and committed on every
/// link of the chosen path; on departure it is released; on migration
/// `try_move` atomically re-routes or leaves the table untouched.
///
/// Everything here is exact integer arithmetic (kbps / ns), so the state
/// after any commit/release interleaving depends only on the *set* of
/// active chains — never on mutation order. That is what lets the
/// indexed fleet engine (departures in calendar order) and the
/// window-synchronous reference engine (departures in node order) stay
/// bit-identical.

namespace greennfv::topology {

enum class Routing {
  kShortest,  ///< min hops, widest bottleneck among min-hop paths
  kWidest,    ///< max bottleneck free capacity, fewest hops among those
};

[[nodiscard]] Routing routing_from_name(const std::string& name);

/// What a routing query reports about the best feasible path.
struct PathView {
  bool feasible = false;
  int hops = 0;
  std::int64_t latency_ns = 0;
  std::int64_t bottleneck_kbps = 0;  ///< min free capacity along the path
};

class PathTable {
 public:
  /// `latency_budget_ns <= 0` disables latency-violation accounting.
  PathTable(const Topology& topo, Routing routing,
            std::int64_t latency_budget_ns);

  /// Best feasible path ingress→host for a `gbps` demand under the
  /// current commitments. Does not mutate state.
  [[nodiscard]] PathView preview(int host, double gbps) const;
  /// One routing pass, a `PathView` per host — what a placement policy
  /// scans when scoring every candidate node.
  [[nodiscard]] std::vector<PathView> preview_hosts(double gbps) const;

  /// Routes and commits `chain` to `host`; false (state unchanged) if no
  /// feasible path exists.
  bool commit_chain(int chain, int host, double gbps);
  /// Releases every link the chain holds. No-op for unknown chains.
  void release_chain(int chain);
  /// Re-routes an active chain to `host`: releases its links, routes
  /// against the freed state, commits the new path. On infeasibility the
  /// original commitment is restored exactly and false is returned.
  bool try_move(int chain, int host);

  /// Fault injection: marks `link` failed and returns the ascending ids
  /// of the active chains whose committed path rides it — the caller
  /// re-routes or evicts each one. Failed links are absent from routing
  /// and draw no energy until repair_link() brings them back. The chains'
  /// commitments are NOT released here (release/try_move does that per
  /// chain), so the caller can process victims one at a time.
  [[nodiscard]] std::vector<int> fail_link(int link);
  void repair_link(int link);
  [[nodiscard]] bool link_failed(int link) const {
    return failed_[static_cast<std::size_t>(link)] != 0;
  }

  /// Per-window link energy: every built link idles at idle_w for the
  /// whole window, and carried bits (committed rate × window) cost
  /// nj_per_bit each. Summed in ascending link order — fixed FP order.
  /// Failed links are powered off: they contribute nothing while down.
  [[nodiscard]] double window_link_energy_j(double window_s) const;

  [[nodiscard]] std::int64_t committed_kbps(int link) const {
    return committed_[static_cast<std::size_t>(link)];
  }
  [[nodiscard]] bool chain_active(int chain) const;
  [[nodiscard]] int chain_hops(int chain) const;
  [[nodiscard]] std::int64_t chain_latency_ns(int chain) const;
  [[nodiscard]] const std::vector<int>& chain_links(int chain) const;

  /// Exact running counters the account phase reads per window.
  [[nodiscard]] std::int64_t active_chains() const { return active_chains_; }
  [[nodiscard]] std::int64_t active_latency_violations() const {
    return active_latency_violations_;
  }
  [[nodiscard]] std::int64_t active_path_latency_ns() const {
    return active_path_latency_ns_;
  }
  [[nodiscard]] std::int64_t latency_budget_ns() const {
    return latency_budget_ns_;
  }

  [[nodiscard]] const Topology& topo() const { return topo_; }

 private:
  struct Entry {
    bool active = false;
    std::int64_t demand_kbps = 0;
    std::int64_t latency_ns = 0;
    std::vector<int> links;
  };

  /// Dijkstra label-setting pass from the ingress; fills per-vertex
  /// (hops, bottleneck, parent-link) labels for a `demand_kbps` flow,
  /// treating links with free < demand as absent. `exclude_chain >= 0`
  /// ignores that chain's own commitment (the try_move re-route).
  void route_labels(std::int64_t demand_kbps, int exclude_chain,
                    std::vector<int>& hops, std::vector<std::int64_t>& bneck,
                    std::vector<int>& parent) const;
  [[nodiscard]] PathView view_from_labels(
      int host, const std::vector<int>& hops,
      const std::vector<std::int64_t>& bneck,
      const std::vector<int>& parent) const;
  void commit_entry(int chain, std::int64_t demand_kbps,
                    std::vector<int> links);
  void release_entry(Entry& e);
  Entry& entry(int chain);

  const Topology& topo_;
  Routing routing_;
  std::int64_t latency_budget_ns_;
  std::vector<std::int64_t> committed_;  ///< per link, kbps
  std::vector<char> failed_;             ///< per link, fault injection
  std::vector<Entry> chains_;            ///< indexed by chain id
  std::int64_t active_chains_ = 0;
  std::int64_t active_latency_violations_ = 0;
  std::int64_t active_path_latency_ns_ = 0;
};

}  // namespace greennfv::topology
