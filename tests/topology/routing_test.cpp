#include "topology/path_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"

// Property/fuzz coverage for the routing core: randomized fabrics, a
// brute-force DFS oracle for path optimality, an exact-path oracle (the
// linear-scan router, kept here as a reference) under commit/move/fault
// churn, and commit/release churn checking the link-commit conservation
// laws (0 <= committed <= capacity, committed == the sum of active
// contributions, exactly zero after every chain departs). All accounting
// is exact integer kbps, so "exactly" is a plain ==, not a tolerance.

namespace greennfv::topology {
namespace {

/// Random connected fabric: every host gets an edge link to a random
/// switch (guaranteeing reachability once switches connect), switches
/// chain 0-1-2-... plus random extra switch-switch links for path
/// diversity. Capacities/latencies are small integers via the quantizers.
Topology random_topology(Rng& rng, int hosts, int switches) {
  Topology t(hosts);
  std::vector<int> sw(static_cast<std::size_t>(switches));
  for (int s = 0; s < switches; ++s)
    sw[static_cast<std::size_t>(s)] = t.add_switch();
  t.set_ingress(sw[0]);
  for (int s = 1; s < switches; ++s) {
    t.add_link(sw[static_cast<std::size_t>(s - 1)],
               sw[static_cast<std::size_t>(s)],
               static_cast<double>(rng.uniform_int(5, 40)),
               static_cast<double>(rng.uniform_int(1, 10)), 1.0, 0.5);
  }
  const int extra = static_cast<int>(rng.uniform_u64(
      static_cast<std::uint64_t>(switches)));
  for (int e = 0; e < extra; ++e) {
    const int a = static_cast<int>(rng.uniform_u64(
        static_cast<std::uint64_t>(switches)));
    const int b = static_cast<int>(rng.uniform_u64(
        static_cast<std::uint64_t>(switches)));
    if (a == b) continue;
    t.add_link(sw[static_cast<std::size_t>(a)],
               sw[static_cast<std::size_t>(b)],
               static_cast<double>(rng.uniform_int(5, 40)),
               static_cast<double>(rng.uniform_int(1, 10)), 1.0, 0.5);
  }
  for (int h = 0; h < hosts; ++h) {
    const int s = static_cast<int>(rng.uniform_u64(
        static_cast<std::uint64_t>(switches)));
    t.add_link(h, sw[static_cast<std::size_t>(s)],
               static_cast<double>(rng.uniform_int(5, 40)),
               static_cast<double>(rng.uniform_int(1, 10)), 1.0, 0.5);
  }
  t.check();
  return t;
}

/// Exhaustive DFS over all simple paths ingress->host: the oracle for
/// "does a feasible path exist" and for the optimal (hops, bottleneck)
/// objective values under the current commitments.
struct Oracle {
  const Topology& topo;
  const PathTable& table;
  std::int64_t demand;
  int best_hops = std::numeric_limits<int>::max();
  std::int64_t best_bneck = 0;  // widest bottleneck over ALL paths
  std::int64_t best_bneck_at_min_hops = 0;
  bool found = false;

  void dfs(int v, int target, std::vector<char>& visited, int hops,
           std::int64_t bneck) {
    if (v == target) {
      found = true;
      best_bneck = std::max(best_bneck, bneck);
      if (hops < best_hops) {
        best_hops = hops;
        best_bneck_at_min_hops = bneck;
      } else if (hops == best_hops) {
        best_bneck_at_min_hops = std::max(best_bneck_at_min_hops, bneck);
      }
      return;
    }
    for (int link : topo.adjacency(v)) {
      const Link& l = topo.links()[static_cast<std::size_t>(link)];
      const std::int64_t free = l.capacity_kbps - table.committed_kbps(link);
      if (free < demand) continue;
      const int u = topo.other_end(link, v);
      if (visited[static_cast<std::size_t>(u)]) continue;
      visited[static_cast<std::size_t>(u)] = 1;
      dfs(u, target, visited, hops + 1, std::min(bneck, free));
      visited[static_cast<std::size_t>(u)] = 0;
    }
  }
};

Oracle run_oracle(const Topology& topo, const PathTable& table, int host,
                  double gbps) {
  Oracle oracle{topo, table, kbps_from_gbps(gbps)};
  std::vector<char> visited(static_cast<std::size_t>(topo.num_vertices()), 0);
  visited[static_cast<std::size_t>(topo.ingress())] = 1;
  oracle.dfs(topo.ingress(), host, visited,
             /*hops=*/0, std::numeric_limits<std::int64_t>::max());
  return oracle;
}

TEST(Routing, ShortestMatchesBruteForceOracleOnRandomFabrics) {
  Rng rng(2024);
  for (int trial = 0; trial < 60; ++trial) {
    const int hosts = static_cast<int>(rng.uniform_int(2, 6));
    const int switches = static_cast<int>(rng.uniform_int(2, 5));
    const Topology topo = random_topology(rng, hosts, switches);
    PathTable table(topo, Routing::kShortest, 0);
    // A few committed chains so free capacity differs from raw capacity.
    for (int c = 0; c < 3; ++c) {
      (void)table.commit_chain(
          c, static_cast<int>(rng.uniform_u64(
                 static_cast<std::uint64_t>(hosts))),
          static_cast<double>(rng.uniform_int(1, 6)));
    }
    const double gbps = static_cast<double>(rng.uniform_int(1, 8));
    for (int h = 0; h < hosts; ++h) {
      const PathView view = table.preview(h, gbps);
      const Oracle oracle = run_oracle(topo, table, h, gbps);
      ASSERT_EQ(view.feasible, oracle.found)
          << "trial " << trial << " host " << h;
      if (!view.feasible) continue;
      // Primary objective exact: minimum hops. Secondary (bottleneck
      // among min-hop paths) exact too — the lexicographic labels keep
      // the dominance property.
      EXPECT_EQ(view.hops, oracle.best_hops);
      EXPECT_EQ(view.bottleneck_kbps, oracle.best_bneck_at_min_hops);
    }
  }
}

TEST(Routing, WidestMatchesBruteForceOracleOnRandomFabrics) {
  Rng rng(7);
  for (int trial = 0; trial < 60; ++trial) {
    const int hosts = static_cast<int>(rng.uniform_int(2, 6));
    const int switches = static_cast<int>(rng.uniform_int(2, 5));
    const Topology topo = random_topology(rng, hosts, switches);
    PathTable table(topo, Routing::kWidest, 0);
    for (int c = 0; c < 3; ++c) {
      (void)table.commit_chain(
          c, static_cast<int>(rng.uniform_u64(
                 static_cast<std::uint64_t>(hosts))),
          static_cast<double>(rng.uniform_int(1, 6)));
    }
    const double gbps = static_cast<double>(rng.uniform_int(1, 8));
    for (int h = 0; h < hosts; ++h) {
      const PathView view = table.preview(h, gbps);
      const Oracle oracle = run_oracle(topo, table, h, gbps);
      ASSERT_EQ(view.feasible, oracle.found);
      if (!view.feasible) continue;
      // Widest routing's primary objective: the maximum bottleneck over
      // every feasible path.
      EXPECT_EQ(view.bottleneck_kbps, oracle.best_bneck);
    }
  }
}

/// The router's per-vertex labels: hop count, bottleneck free kbps and
/// the link to the parent vertex (-1 = unreached).
struct ScanLabels {
  std::vector<int> hops;
  std::vector<std::int64_t> bneck;
  std::vector<int> parent;
};

/// The reference router: a label-setting Dijkstra from the ingress that
/// finds each next vertex by scanning all of them and settles the best
/// label in the routing mode's lexicographic order, the lowest vertex id
/// among equal labels. Links that are down or have less than
/// `demand_kbps` free are absent. `freed_links` carry `freed_kbps` of
/// free capacity on top (a chain's own commitment, as try_move
/// re-routes it). PathTable must settle the same labels and parents.
ScanLabels scan_route(const Topology& topo, const PathTable& table,
                      Routing routing, std::int64_t demand_kbps,
                      const std::vector<int>& freed_links,
                      std::int64_t freed_kbps) {
  const auto n = static_cast<std::size_t>(topo.num_vertices());
  constexpr int kUnreached = std::numeric_limits<int>::max();
  ScanLabels l{std::vector<int>(n, kUnreached),
               std::vector<std::int64_t>(n, 0), std::vector<int>(n, -1)};
  std::vector<char> done(n, 0);
  const auto src = static_cast<std::size_t>(topo.ingress());
  l.hops[src] = 0;
  l.bneck[src] = std::numeric_limits<std::int64_t>::max();
  auto better = [&](int ha, std::int64_t ba, int hb, std::int64_t bb) {
    if (routing == Routing::kShortest) {
      if (ha != hb) return ha < hb;
      return ba > bb;
    }
    if (ba != bb) return ba > bb;
    return ha < hb;
  };
  for (std::size_t round = 0; round < n; ++round) {
    std::size_t u = n;
    for (std::size_t v = 0; v < n; ++v) {
      if (done[v] || l.hops[v] == kUnreached) continue;
      if (u == n || better(l.hops[v], l.bneck[v], l.hops[u], l.bneck[u])) {
        u = v;
      }
    }
    if (u == n) break;
    done[u] = 1;
    for (const int link : topo.adjacency(static_cast<int>(u))) {
      if (table.link_failed(link)) continue;
      std::int64_t used = table.committed_kbps(link);
      if (std::find(freed_links.begin(), freed_links.end(), link) !=
          freed_links.end()) {
        used -= freed_kbps;
      }
      const std::int64_t free =
          topo.links()[static_cast<std::size_t>(link)].capacity_kbps - used;
      if (free < demand_kbps) continue;
      const auto v = static_cast<std::size_t>(
          topo.other_end(link, static_cast<int>(u)));
      if (done[v]) continue;
      const int nh = l.hops[u] + 1;
      const std::int64_t nb = std::min(l.bneck[u], free);
      if (l.parent[v] < 0 || better(nh, nb, l.hops[v], l.bneck[v])) {
        l.hops[v] = nh;
        l.bneck[v] = nb;
        l.parent[v] = link;
      }
    }
  }
  return l;
}

/// The links commit_chain stores for `host` (host-side link first), or
/// nullopt when the labels leave the host unreached.
std::optional<std::vector<int>> scan_path(const Topology& topo,
                                          const ScanLabels& l, int host) {
  std::vector<int> links;
  for (int v = host; v != topo.ingress();) {
    const int link = l.parent[static_cast<std::size_t>(v)];
    if (link < 0) return std::nullopt;
    links.push_back(link);
    v = topo.other_end(link, v);
  }
  return links;
}

PathView scan_view(const Topology& topo, const ScanLabels& l, int host) {
  PathView view;
  const std::optional<std::vector<int>> path = scan_path(topo, l, host);
  if (!path) return view;
  view.feasible = true;
  if (host == topo.ingress()) {
    view.bottleneck_kbps = std::numeric_limits<std::int64_t>::max();
    return view;
  }
  view.hops = l.hops[static_cast<std::size_t>(host)];
  view.bottleneck_kbps = l.bneck[static_cast<std::size_t>(host)];
  for (const int link : *path) {
    view.latency_ns += topo.links()[static_cast<std::size_t>(link)].latency_ns;
  }
  return view;
}

/// Drives one PathTable through random churn — commits, releases, moves,
/// link failures with their riders re-routed or released, repairs,
/// previews — and compares every routing answer with scan_route: the
/// exact links after every commit_chain and try_move (failed ones
/// included) and every PathView of preview and preview_hosts. Counts the
/// mismatches instead of stopping at the first, and keeps that one's
/// description.
struct ScanComparison {
  const Topology& topo;
  Routing routing;
  PathTable table;
  Rng rng;
  std::vector<std::int64_t> demand_kbps;  ///< by chain id, 0 = inactive
  std::vector<int> host;                  ///< by chain id
  std::vector<int> down;                  ///< failed link ids
  std::int64_t comparisons = 0;
  std::int64_t mismatches = 0;
  std::int64_t failed_commits = 0;
  std::int64_t failed_moves = 0;
  std::string first_mismatch;
  std::string where;

  ScanComparison(const Topology& t, Routing r, std::uint64_t seed,
                 std::string label)
      : topo(t), routing(r), table(t, r, 0), rng(seed),
        where(std::move(label)) {}

  void check(bool equal, int op, const char* what) {
    ++comparisons;
    if (equal) return;
    if (mismatches++ == 0) {
      std::ostringstream os;
      os << where << " op " << op << ": " << what;
      first_mismatch = os.str();
    }
  }

  ScanLabels reference(std::int64_t kbps) const {
    return scan_route(topo, table, routing, kbps, {}, 0);
  }

  void commit(int op, int id, int h, double gbps) {
    const std::int64_t kbps = kbps_from_gbps(gbps);
    const std::optional<std::vector<int>> want =
        scan_path(topo, reference(kbps), h);
    const bool ok = table.commit_chain(id, h, gbps);
    check(ok == want.has_value(), op, "commit_chain feasibility");
    if (!ok) {
      ++failed_commits;
      check(!table.chain_active(id), op, "failed commit left chain active");
      return;
    }
    demand_kbps[static_cast<std::size_t>(id)] = kbps;
    host[static_cast<std::size_t>(id)] = h;
    check(want && table.chain_links(id) == *want, op, "commit_chain links");
  }

  bool move(int op, int id, int h) {
    const std::vector<int> before = table.chain_links(id);
    const std::int64_t kbps = demand_kbps[static_cast<std::size_t>(id)];
    const std::optional<std::vector<int>> want = scan_path(
        topo, scan_route(topo, table, routing, kbps, before, kbps), h);
    const bool ok = table.try_move(id, h);
    check(ok == want.has_value(), op, "try_move feasibility");
    check(table.chain_links(id) == (want ? *want : before), op,
          "try_move links");
    if (ok) {
      host[static_cast<std::size_t>(id)] = h;
    } else {
      ++failed_moves;
    }
    return ok;
  }

  void release(int id) {
    table.release_chain(id);
    demand_kbps[static_cast<std::size_t>(id)] = 0;
  }

  void compare_view(int op, const PathView& got, const PathView& want) {
    check(got.feasible == want.feasible && got.hops == want.hops &&
              got.bottleneck_kbps == want.bottleneck_kbps &&
              got.latency_ns == want.latency_ns,
          op, "PathView");
  }

  /// Fails a random up link (at most a tenth of them stay down at once),
  /// checks the riders, and re-routes each on its host or releases it —
  /// what the fleet's fault handler does.
  void fail_random_link(int op) {
    const int link = static_cast<int>(
        rng.uniform_u64(static_cast<std::uint64_t>(topo.num_links())));
    if (table.link_failed(link) ||
        static_cast<int>(down.size()) >= std::max(1, topo.num_links() / 10)) {
      return;
    }
    std::vector<int> expected;
    for (int c = 0; c < static_cast<int>(demand_kbps.size()); ++c) {
      if (demand_kbps[static_cast<std::size_t>(c)] == 0) continue;
      const std::vector<int>& links = table.chain_links(c);
      if (std::find(links.begin(), links.end(), link) != links.end()) {
        expected.push_back(c);
      }
    }
    const std::vector<int> riders = table.fail_link(link);
    down.push_back(link);
    check(riders == expected, op, "fail_link riders");
    for (const int id : riders) {
      if (!move(op, id, host[static_cast<std::size_t>(id)])) release(id);
    }
  }

  void run(int ops, int max_chains, int max_gbps) {
    demand_kbps.assign(static_cast<std::size_t>(max_chains), 0);
    host.assign(static_cast<std::size_t>(max_chains), -1);
    const auto hosts = static_cast<std::uint64_t>(topo.num_hosts());
    for (int op = 0; op < ops; ++op) {
      const std::uint64_t kind = rng.uniform_u64(20);
      const int h = static_cast<int>(rng.uniform_u64(hosts));
      const double gbps = static_cast<double>(rng.uniform_int(1, max_gbps));
      if (kind < 12) {
        const int id = static_cast<int>(
            rng.uniform_u64(static_cast<std::uint64_t>(max_chains)));
        if (demand_kbps[static_cast<std::size_t>(id)] == 0) {
          commit(op, id, h, gbps);
        } else if (rng.bernoulli(0.4)) {
          release(id);
        } else {
          (void)move(op, id, h);
        }
      } else if (kind < 14) {
        fail_random_link(op);
      } else if (kind < 16) {
        if (down.empty()) continue;
        const std::size_t i = rng.uniform_u64(down.size());
        table.repair_link(down[i]);
        down.erase(down.begin() + static_cast<std::ptrdiff_t>(i));
      } else if (kind < 18) {
        compare_view(op, table.preview(h, gbps),
                     scan_view(topo, reference(kbps_from_gbps(gbps)), h));
      } else {
        const std::vector<PathView> views = table.preview_hosts(gbps);
        const ScanLabels l = reference(kbps_from_gbps(gbps));
        check(views.size() == hosts, op, "preview_hosts size");
        for (int v = 0; v < static_cast<int>(views.size()); ++v) {
          compare_view(op, views[static_cast<std::size_t>(v)],
                       scan_view(topo, l, v));
        }
      }
    }
  }
};

/// A random connected fabric in which about half the hosts get a second
/// link, to a switch or to another host, so a host can lie inside
/// another host's path. Capacities are multiples of 10 Gbps, so equal
/// labels — where the vertex-id tie-break decides the path — are common.
Topology random_multihomed_topology(Rng& rng, int hosts, int switches) {
  Topology t(hosts);
  auto capacity = [&] {
    return 10.0 * static_cast<double>(rng.uniform_int(1, 3));
  };
  auto latency = [&] { return static_cast<double>(rng.uniform_int(1, 10)); };
  auto pick = [&](int n) {
    return static_cast<int>(rng.uniform_u64(static_cast<std::uint64_t>(n)));
  };
  for (int s = 0; s < switches; ++s) (void)t.add_switch();
  t.set_ingress(hosts + pick(switches));
  for (int s = 1; s < switches; ++s) {
    t.add_link(hosts + pick(s), hosts + s, capacity(), latency(), 1.0, 0.5);
  }
  for (int e = pick(switches + 1); e > 0; --e) {
    const int a = hosts + pick(switches);
    const int b = hosts + pick(switches);
    if (a != b) t.add_link(a, b, capacity(), latency(), 1.0, 0.5);
  }
  for (int h = 0; h < hosts; ++h) {
    t.add_link(h, hosts + pick(switches), capacity(), latency(), 1.0, 0.5);
  }
  for (int h = 0; h < hosts; ++h) {
    if (!rng.bernoulli(0.5)) continue;
    const int other = rng.bernoulli(0.5) ? pick(hosts) : hosts + pick(switches);
    if (other != h) t.add_link(h, other, capacity(), latency(), 1.0, 0.5);
  }
  t.check();
  return t;
}

TEST(Routing, HeapMatchesLinearScanExactly) {
  std::int64_t comparisons = 0;
  std::int64_t failed_commits = 0;
  std::int64_t failed_moves = 0;
  auto run = [&](const Topology& topo, std::uint64_t seed,
                 const std::string& label) {
    for (const Routing routing : {Routing::kShortest, Routing::kWidest}) {
      ScanComparison cmp(topo, routing, seed,
                         label + (routing == Routing::kShortest
                                      ? " shortest"
                                      : " widest"));
      cmp.run(/*ops=*/1200, /*max_chains=*/2 * topo.num_hosts() + 4,
              /*max_gbps=*/6);
      EXPECT_EQ(cmp.mismatches, 0)
          << cmp.mismatches << " of " << cmp.comparisons
          << " answers differ from the linear scan; first: "
          << cmp.first_mismatch;
      comparisons += cmp.comparisons;
      failed_commits += cmp.failed_commits;
      failed_moves += cmp.failed_moves;
    }
  };

  std::uint64_t seed = 1;
  for (const std::string& preset : TopologySpec::preset_names()) {
    for (const int hosts : {1, 6, 23, 48}) {
      TopologySpec spec;
      spec.enabled = true;
      spec.preset = preset;
      spec.spines = 2 + hosts % 3;
      spec.fat_k = 2;
      while (spec.fat_k * spec.fat_k * spec.fat_k / 4 < hosts) spec.fat_k += 2;
      spec.link_gbps = 10.0;
      spec.core_gbps = 20.0;
      const Topology topo = Topology::build(spec, hosts);
      run(topo, seed++, preset + " hosts=" + std::to_string(hosts));
    }
  }
  Rng rng(20);
  for (int trial = 0; trial < 40; ++trial) {
    const int hosts = static_cast<int>(rng.uniform_int(2, 12));
    const int switches = static_cast<int>(rng.uniform_int(1, 6));
    const Topology topo = random_multihomed_topology(rng, hosts, switches);
    run(topo, seed++, "random fabric " + std::to_string(trial));
  }
  // The churn must reach both outcomes of every routed call.
  EXPECT_GT(comparisons, 100000);
  EXPECT_GT(failed_commits, 0);
  EXPECT_GT(failed_moves, 0);
}

TEST(Routing, CommitReleaseChurnConservesLinkCommitments) {
  Rng rng(99);
  for (const Routing routing : {Routing::kShortest, Routing::kWidest}) {
    const Topology topo = random_topology(rng, 5, 4);
    PathTable table(topo, routing, 0);
    // demand per active chain, by chain id (-1 = inactive).
    std::vector<double> active_gbps;
    int committed_count = 0;
    for (int op = 0; op < 500; ++op) {
      const int id = static_cast<int>(rng.uniform_u64(40));
      if (static_cast<int>(active_gbps.size()) <= id)
        active_gbps.resize(static_cast<std::size_t>(id) + 1, -1.0);
      if (active_gbps[static_cast<std::size_t>(id)] < 0.0) {
        const double gbps = static_cast<double>(rng.uniform_int(1, 5));
        const int host = static_cast<int>(rng.uniform_u64(5));
        if (table.commit_chain(id, host, gbps)) {
          active_gbps[static_cast<std::size_t>(id)] = gbps;
          ++committed_count;
        }
      } else {
        table.release_chain(id);
        active_gbps[static_cast<std::size_t>(id)] = -1.0;
        --committed_count;
      }

      // Conservation, every op: per-link committed equals the sum of the
      // active chains' contributions and never exceeds capacity.
      std::vector<std::int64_t> expected(
          static_cast<std::size_t>(topo.num_links()), 0);
      for (int c = 0; c < static_cast<int>(active_gbps.size()); ++c) {
        if (active_gbps[static_cast<std::size_t>(c)] < 0.0) continue;
        ASSERT_TRUE(table.chain_active(c));
        for (int link : table.chain_links(c)) {
          expected[static_cast<std::size_t>(link)] +=
              kbps_from_gbps(active_gbps[static_cast<std::size_t>(c)]);
        }
      }
      for (int l = 0; l < topo.num_links(); ++l) {
        ASSERT_EQ(table.committed_kbps(l), expected[static_cast<std::size_t>(l)])
            << "op " << op << " link " << l;
        ASSERT_GE(table.committed_kbps(l), 0);
        ASSERT_LE(table.committed_kbps(l),
                  topo.links()[static_cast<std::size_t>(l)].capacity_kbps);
      }
      ASSERT_EQ(table.active_chains(), committed_count);
    }

    // Drain everything: every link must return to exactly zero.
    for (int c = 0; c < static_cast<int>(active_gbps.size()); ++c)
      table.release_chain(c);
    for (int l = 0; l < topo.num_links(); ++l)
      EXPECT_EQ(table.committed_kbps(l), 0);
    EXPECT_EQ(table.active_chains(), 0);
    EXPECT_EQ(table.active_path_latency_ns(), 0);
  }
}

TEST(Routing, TryMoveIsAtomicOnFailure) {
  // Two hosts behind one 10 Gbps pipe each, ingress in the middle; a
  // blocker on host 1 leaves no room, so moving chain 0 there must fail
  // and leave its original commitment untouched.
  Topology topo(2);
  const int sw = topo.add_switch();
  topo.set_ingress(sw);
  topo.add_link(0, sw, 10.0, 2.0, 1.0, 0.5);
  topo.add_link(1, sw, 10.0, 2.0, 1.0, 0.5);
  topo.check();
  PathTable table(topo, Routing::kShortest, 0);
  ASSERT_TRUE(table.commit_chain(0, 0, 6.0));
  ASSERT_TRUE(table.commit_chain(1, 1, 6.0));  // blocker
  const std::int64_t before0 = table.committed_kbps(0);
  const std::int64_t before1 = table.committed_kbps(1);
  EXPECT_FALSE(table.try_move(0, 1));
  EXPECT_EQ(table.committed_kbps(0), before0);
  EXPECT_EQ(table.committed_kbps(1), before1);
  EXPECT_TRUE(table.chain_active(0));
  EXPECT_EQ(table.chain_links(0).size(), 1u);
  // Release the blocker and the move succeeds; commitments follow.
  table.release_chain(1);
  EXPECT_TRUE(table.try_move(0, 1));
  EXPECT_EQ(table.committed_kbps(0), 0);
  EXPECT_EQ(table.committed_kbps(1), kbps_from_gbps(6.0));
}

TEST(Routing, CommitChainRejectsAnActiveOrNegativeChain) {
  // A second commit of an active chain would add its demand to the links
  // again and count it twice; releasing it then could never return them
  // to zero.
  Topology topo(1);
  const int sw = topo.add_switch();
  topo.set_ingress(sw);
  topo.add_link(0, sw, 10.0, 2.0, 1.0, 0.5);
  topo.check();
  PathTable table(topo, Routing::kShortest, 0);
  ASSERT_TRUE(table.commit_chain(0, 0, 4.0));
  EXPECT_DEATH((void)table.commit_chain(0, 0, 4.0), "already active");
  EXPECT_DEATH((void)table.commit_chain(-1, 0, 4.0), "negative");
  table.release_chain(0);
  EXPECT_EQ(table.committed_kbps(0), 0);
  EXPECT_TRUE(table.commit_chain(0, 0, 4.0));
  EXPECT_EQ(table.committed_kbps(0), kbps_from_gbps(4.0));
  EXPECT_EQ(table.active_chains(), 1);
}

TEST(Routing, TryMoveReusesItsOwnCapacity) {
  // One host, one 10 Gbps link carrying a 6 Gbps chain: re-routing the
  // chain to its own host must succeed — its own commitment is free
  // capacity for the re-route.
  Topology topo(1);
  const int sw = topo.add_switch();
  topo.set_ingress(sw);
  topo.add_link(0, sw, 10.0, 2.0, 1.0, 0.5);
  topo.check();
  PathTable table(topo, Routing::kShortest, 0);
  ASSERT_TRUE(table.commit_chain(0, 0, 6.0));
  EXPECT_TRUE(table.try_move(0, 0));
  EXPECT_EQ(table.committed_kbps(0), kbps_from_gbps(6.0));
}

TEST(Routing, LatencyBudgetCountsViolationsExactly) {
  // 2-hop path with 7 us total latency vs a 5 us budget.
  Topology topo(1);
  const int sw = topo.add_switch();
  const int gw = topo.add_switch();
  topo.set_ingress(gw);
  topo.add_link(0, sw, 10.0, 3.0, 1.0, 0.5);
  topo.add_link(sw, gw, 10.0, 4.0, 1.0, 0.5);
  topo.check();
  PathTable tight(topo, Routing::kShortest, ns_from_us(5.0));
  ASSERT_TRUE(tight.commit_chain(0, 0, 1.0));
  EXPECT_EQ(tight.active_latency_violations(), 1);
  EXPECT_EQ(tight.chain_latency_ns(0), ns_from_us(7.0));
  tight.release_chain(0);
  EXPECT_EQ(tight.active_latency_violations(), 0);

  PathTable loose(topo, Routing::kShortest, ns_from_us(10.0));
  ASSERT_TRUE(loose.commit_chain(0, 0, 1.0));
  EXPECT_EQ(loose.active_latency_violations(), 0);
}

TEST(Routing, WindowLinkEnergySumsIdleAndCarriedBits) {
  Topology topo(1);
  const int sw = topo.add_switch();
  topo.set_ingress(sw);
  topo.add_link(0, sw, 10.0, 2.0, /*idle_w=*/2.0, /*nj_per_bit=*/0.5);
  topo.check();
  PathTable table(topo, Routing::kShortest, 0);
  // Idle only: 2 W x 10 s.
  EXPECT_DOUBLE_EQ(table.window_link_energy_j(10.0), 20.0);
  // 4 Gbps committed: + 0.5 nJ/bit x 4e9 bit/s x 10 s = 20 J.
  ASSERT_TRUE(table.commit_chain(0, 0, 4.0));
  EXPECT_DOUBLE_EQ(table.window_link_energy_j(10.0), 40.0);
}

}  // namespace
}  // namespace greennfv::topology
