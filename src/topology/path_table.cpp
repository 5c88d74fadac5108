#include "topology/path_table.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "common/assert.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace greennfv::topology {

Routing routing_from_name(const std::string& name) {
  if (name == "shortest") return Routing::kShortest;
  if (name == "widest") return Routing::kWidest;
  throw std::invalid_argument("topology: unknown routing '" + name + "'");
}

PathTable::PathTable(const Topology& topo, Routing routing,
                     std::int64_t latency_budget_ns)
    : topo_(topo),
      routing_(routing),
      latency_budget_ns_(latency_budget_ns),
      committed_(static_cast<std::size_t>(topo.num_links()), 0),
      failed_(static_cast<std::size_t>(topo.num_links()), 0) {}

PathTable::Entry& PathTable::entry(int chain) {
  if (chain >= static_cast<int>(chains_.size())) {
    chains_.resize(static_cast<std::size_t>(chain) + 1);
  }
  return chains_[static_cast<std::size_t>(chain)];
}

bool PathTable::chain_active(int chain) const {
  return chain >= 0 && chain < static_cast<int>(chains_.size()) &&
         chains_[static_cast<std::size_t>(chain)].active;
}

int PathTable::chain_hops(int chain) const {
  return static_cast<int>(chain_links(chain).size());
}

std::int64_t PathTable::chain_latency_ns(int chain) const {
  return chains_[static_cast<std::size_t>(chain)].latency_ns;
}

const std::vector<int>& PathTable::chain_links(int chain) const {
  return chains_[static_cast<std::size_t>(chain)].links;
}

void PathTable::route_labels(std::int64_t demand_kbps, int exclude_chain,
                             int target, std::vector<int>& hops,
                             std::vector<std::int64_t>& bneck,
                             std::vector<int>& parent) const {
  static auto& c_passes = telemetry::metrics::counter("net.route_passes");
  c_passes.add();
  const int n = topo_.num_vertices();
  constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max();
  hops.assign(static_cast<std::size_t>(n), std::numeric_limits<int>::max());
  bneck.assign(static_cast<std::size_t>(n), 0);
  parent.assign(static_cast<std::size_t>(n), -1);
  std::vector<char> done(static_cast<std::size_t>(n), 0);

  // The excluded chain's own commitment counts as free capacity (the
  // re-route case: its links would be released before re-committing).
  const Entry* excluded = nullptr;
  if (exclude_chain >= 0 && chain_active(exclude_chain)) {
    excluded = &chains_[static_cast<std::size_t>(exclude_chain)];
  }
  auto free_kbps = [&](int link) {
    std::int64_t used = committed_[static_cast<std::size_t>(link)];
    if (excluded != nullptr) {
      for (int l : excluded->links) {
        if (l == link) {
          used -= excluded->demand_kbps;
          break;
        }
      }
    }
    const Link& l = topo_.links()[static_cast<std::size_t>(link)];
    return l.capacity_kbps - used;
  };

  const int src = topo_.ingress();
  hops[static_cast<std::size_t>(src)] = 0;
  bneck[static_cast<std::size_t>(src)] = kInf;

  // Label-setting Dijkstra on a binary heap, O((V + E) log V). "better"
  // is lexicographic per routing mode; both orderings keep the dominance
  // property (extending the settled label never improves a settled
  // vertex), so the primary objective is exact.
  auto better = [&](int ha, std::int64_t ba, int hb, std::int64_t bb) {
    if (routing_ == Routing::kShortest) {
      if (ha != hb) return ha < hb;
      return ba > bb;
    }
    if (ba != bb) return ba > bb;
    return ha < hb;
  };
  // Each vertex settles at its best label, the lowest vertex id first
  // among equal labels — the same winner every run, on every engine. An
  // entry is pushed whenever a vertex's label strictly improves, so every
  // reached unsettled vertex has an entry holding its current label, and
  // an entry left behind by an improvement orders after that vertex's
  // current one. The first unsettled vertex off the heap is therefore the
  // best (label, id) among all reached unsettled vertices; entries of
  // settled vertices are stale and skipped.
  //
  // Labels and parent links are written only for unsettled vertices, and
  // each parent settled before its child, so a settled vertex's label and
  // its whole path back to the ingress are final: a pass for one target
  // returns as soon as the target settles.
  struct Queued {
    int hops;
    std::int64_t bneck;
    int vertex;
  };
  auto pops_after = [&](const Queued& a, const Queued& b) {
    if (better(b.hops, b.bneck, a.hops, a.bneck)) return true;
    if (better(a.hops, a.bneck, b.hops, b.bneck)) return false;
    return a.vertex > b.vertex;
  };
  std::vector<Queued> heap = {{0, kInf, src}};
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), pops_after);
    const int u = heap.back().vertex;
    heap.pop_back();
    if (done[static_cast<std::size_t>(u)]) continue;
    done[static_cast<std::size_t>(u)] = 1;
    if (u == target) return;
    for (int link : topo_.adjacency(u)) {
      if (failed_[static_cast<std::size_t>(link)]) continue;  // down link
      const std::int64_t free = free_kbps(link);
      if (free < demand_kbps) continue;  // infeasible link: absent
      const int v = topo_.other_end(link, u);
      if (done[static_cast<std::size_t>(v)]) continue;
      const int nh = hops[static_cast<std::size_t>(u)] + 1;
      const std::int64_t nb =
          std::min(bneck[static_cast<std::size_t>(u)], free);
      if (parent[static_cast<std::size_t>(v)] < 0 ||
          better(nh, nb, hops[static_cast<std::size_t>(v)],
                 bneck[static_cast<std::size_t>(v)])) {
        hops[static_cast<std::size_t>(v)] = nh;
        bneck[static_cast<std::size_t>(v)] = nb;
        parent[static_cast<std::size_t>(v)] = link;
        // A vertex with one link (every preset host) is relaxed only by
        // its one neighbour, which settles once: this label is final.
        // Settling the vertex relaxes nothing, so it may settle out of
        // heap order: it settles here and never enters the heap.
        if (topo_.adjacency(v).size() == 1) {
          done[static_cast<std::size_t>(v)] = 1;
          if (v == target) return;
          continue;
        }
        heap.push_back({nh, nb, v});
        std::push_heap(heap.begin(), heap.end(), pops_after);
      }
    }
  }
}

PathView PathTable::view_from_labels(
    int host, const std::vector<int>& hops,
    const std::vector<std::int64_t>& bneck,
    const std::vector<int>& parent) const {
  PathView view;
  if (host == topo_.ingress()) {
    view.feasible = true;
    view.bottleneck_kbps = std::numeric_limits<std::int64_t>::max();
    return view;
  }
  if (parent[static_cast<std::size_t>(host)] < 0) return view;
  view.feasible = true;
  view.hops = hops[static_cast<std::size_t>(host)];
  view.bottleneck_kbps = bneck[static_cast<std::size_t>(host)];
  for (int v = host; v != topo_.ingress();) {
    const int link = parent[static_cast<std::size_t>(v)];
    view.latency_ns +=
        topo_.links()[static_cast<std::size_t>(link)].latency_ns;
    v = topo_.other_end(link, v);
  }
  return view;
}

PathView PathTable::preview(int host, double gbps) const {
  std::vector<int> hops;
  std::vector<std::int64_t> bneck;
  std::vector<int> parent;
  route_labels(kbps_from_gbps(gbps), -1, host, hops, bneck, parent);
  return view_from_labels(host, hops, bneck, parent);
}

std::vector<PathView> PathTable::preview_hosts(double gbps) const {
  GNFV_TRACE_SPAN("net/preview_hosts");
  std::vector<int> hops;
  std::vector<std::int64_t> bneck;
  std::vector<int> parent;
  route_labels(kbps_from_gbps(gbps), -1, -1, hops, bneck, parent);
  std::vector<PathView> views;
  views.reserve(static_cast<std::size_t>(topo_.num_hosts()));
  for (int h = 0; h < topo_.num_hosts(); ++h) {
    views.push_back(view_from_labels(h, hops, bneck, parent));
  }
  return views;
}

void PathTable::commit_entry(int chain, std::int64_t demand_kbps,
                             std::vector<int> links) {
  static auto& c_commits = telemetry::metrics::counter("net.commits");
  c_commits.add();
  Entry& e = entry(chain);
  e.active = true;
  e.demand_kbps = demand_kbps;
  e.links = std::move(links);
  e.latency_ns = 0;
  for (int link : e.links) {
    committed_[static_cast<std::size_t>(link)] += demand_kbps;
    e.latency_ns += topo_.links()[static_cast<std::size_t>(link)].latency_ns;
  }
  ++active_chains_;
  active_path_latency_ns_ += e.latency_ns;
  if (latency_budget_ns_ > 0 && e.latency_ns > latency_budget_ns_) {
    ++active_latency_violations_;
  }
}

void PathTable::release_entry(Entry& e) {
  static auto& c_releases = telemetry::metrics::counter("net.releases");
  c_releases.add();
  for (int link : e.links) {
    committed_[static_cast<std::size_t>(link)] -= e.demand_kbps;
  }
  --active_chains_;
  active_path_latency_ns_ -= e.latency_ns;
  if (latency_budget_ns_ > 0 && e.latency_ns > latency_budget_ns_) {
    --active_latency_violations_;
  }
  e.active = false;
  e.links.clear();
  e.demand_kbps = 0;
  e.latency_ns = 0;
}

bool PathTable::commit_chain(int chain, int host, double gbps) {
  GNFV_TRACE_SPAN("net/commit", static_cast<std::uint64_t>(chain));
  GNFV_REQUIRE(chain >= 0 && !chain_active(chain),
               "PathTable::commit_chain: chain id is negative or already "
               "active");
  const std::int64_t demand = kbps_from_gbps(gbps);
  std::vector<int> hops;
  std::vector<std::int64_t> bneck;
  std::vector<int> parent;
  route_labels(demand, -1, host, hops, bneck, parent);
  if (host != topo_.ingress() &&
      parent[static_cast<std::size_t>(host)] < 0) {
    return false;
  }
  std::vector<int> links;
  for (int v = host; v != topo_.ingress();) {
    const int link = parent[static_cast<std::size_t>(v)];
    links.push_back(link);
    v = topo_.other_end(link, v);
  }
  commit_entry(chain, demand, std::move(links));
  return true;
}

void PathTable::release_chain(int chain) {
  if (!chain_active(chain)) return;
  release_entry(chains_[static_cast<std::size_t>(chain)]);
}

bool PathTable::try_move(int chain, int host) {
  GNFV_TRACE_SPAN("net/try_move", static_cast<std::uint64_t>(chain));
  static auto& c_moves_failed =
      telemetry::metrics::counter("net.moves_failed");
  if (!chain_active(chain)) return false;
  Entry& e = chains_[static_cast<std::size_t>(chain)];
  std::vector<int> hops;
  std::vector<std::int64_t> bneck;
  std::vector<int> parent;
  route_labels(e.demand_kbps, chain, host, hops, bneck, parent);
  if (host != topo_.ingress() &&
      parent[static_cast<std::size_t>(host)] < 0) {
    c_moves_failed.add();
    return false;  // state untouched: the old commitment never left
  }
  std::vector<int> links;
  for (int v = host; v != topo_.ingress();) {
    const int link = parent[static_cast<std::size_t>(v)];
    links.push_back(link);
    v = topo_.other_end(link, v);
  }
  const std::int64_t demand = e.demand_kbps;
  release_entry(e);
  commit_entry(chain, demand, std::move(links));
  return true;
}

std::vector<int> PathTable::fail_link(int link) {
  auto& flag = failed_[static_cast<std::size_t>(link)];
  GNFV_REQUIRE(flag == 0, "PathTable::fail_link: link already failed");
  flag = 1;
  std::vector<int> riders;
  for (std::size_t chain = 0; chain < chains_.size(); ++chain) {
    const Entry& e = chains_[chain];
    if (!e.active) continue;
    for (const int l : e.links) {
      if (l == link) {
        riders.push_back(static_cast<int>(chain));
        break;
      }
    }
  }
  return riders;
}

void PathTable::repair_link(int link) {
  auto& flag = failed_[static_cast<std::size_t>(link)];
  GNFV_REQUIRE(flag != 0, "PathTable::repair_link: link is up");
  flag = 0;
}

double PathTable::window_link_energy_j(double window_s) const {
  double energy = 0.0;
  for (std::size_t i = 0; i < committed_.size(); ++i) {
    if (failed_[i]) continue;  // a failed link is powered off
    const Link& l = topo_.links()[i];
    // idle draw for the whole window + nJ/bit over carried bits:
    // committed kbps * 1e3 bit/s * window_s * nj * 1e-9 J.
    energy += l.idle_w * window_s;
    energy += l.nj_per_bit * 1e-6 *
              static_cast<double>(committed_[i]) * window_s;
  }
  return energy;
}

}  // namespace greennfv::topology
