#include "topology/topology.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace greennfv::topology {

std::int64_t kbps_from_gbps(double gbps) {
  return static_cast<std::int64_t>(std::llround(gbps * 1e6));
}

std::int64_t ns_from_us(double us) {
  return static_cast<std::int64_t>(std::llround(us * 1e3));
}

const std::vector<std::string>& TopologySpec::preset_names() {
  static const std::vector<std::string> names = {
      "single-rack", "leaf-spine", "fat-tree", "edge-core"};
  return names;
}

const std::vector<std::string>& TopologySpec::routing_names() {
  static const std::vector<std::string> names = {"shortest", "widest"};
  return names;
}

namespace {

bool contains(const std::vector<std::string>& names,
              const std::string& value) {
  return std::find(names.begin(), names.end(), value) != names.end();
}

std::string joined(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& n : names) {
    if (!out.empty()) out += ", ";
    out += n;
  }
  return out;
}

[[noreturn]] void fail(const std::string& what) {
  throw std::invalid_argument("topology: " + what);
}

/// Throws unless fat-tree(k) attaches `hosts` hosts. Its capacity, k^3/4,
/// overflows int from k = 1291, so compare pods instead: (k/2)^2 hosts per
/// pod fits 64 bits for every int k, and the product is formed only when
/// it is below `hosts`.
void require_fat_tree_fits(int k, int hosts) {
  const std::int64_t per_pod = std::int64_t{k / 2} * (k / 2);
  if (per_pod > 0 && (hosts + per_pod - 1) / per_pod <= k) return;
  fail("fat-tree with fat_k=" + std::to_string(k) + " attaches at most " +
       std::to_string(per_pod * k) + " hosts, got " + std::to_string(hosts));
}

}  // namespace

void validate_spec(const TopologySpec& spec, int num_hosts) {
  if (!contains(TopologySpec::preset_names(), spec.preset)) {
    fail("unknown topology.preset '" + spec.preset + "' (known: " +
         joined(TopologySpec::preset_names()) + ")");
  }
  if (!contains(TopologySpec::routing_names(), spec.routing)) {
    fail("unknown topology.routing '" + spec.routing + "' (known: " +
         joined(TopologySpec::routing_names()) + ")");
  }
  if (spec.hosts_per_leaf < 1) fail("topology.hosts_per_leaf must be >= 1");
  if (spec.spines < 1) fail("topology.spines must be >= 1");
  // Real fabrics stop near k = 128 (524,288 hosts); the bound keeps the
  // (k/2)^2 core switches a build instantiates, and its int arithmetic,
  // small.
  if (spec.fat_k < 2 || spec.fat_k > 128 || spec.fat_k % 2 != 0) {
    fail("topology.fat_k must be an even integer in [2, 128]");
  }
  if (!(spec.link_gbps > 0.0)) fail("topology.link_gbps must be > 0");
  if (!(spec.core_gbps > 0.0)) fail("topology.core_gbps must be > 0");
  if (spec.link_latency_us < 0.0) fail("topology.link_latency_us must be >= 0");
  if (spec.core_latency_us < 0.0) fail("topology.core_latency_us must be >= 0");
  if (spec.link_idle_w < 0.0) fail("topology.link_idle_w must be >= 0");
  if (spec.link_nj_per_bit < 0.0) fail("topology.link_nj_per_bit must be >= 0");
  if (spec.enabled && spec.preset == "fat-tree") {
    require_fat_tree_fits(spec.fat_k, num_hosts);
  }
}

Topology::Topology(int num_hosts) : num_hosts_(num_hosts) {
  if (num_hosts < 1) fail("a topology needs at least one host");
  adjacency_.resize(static_cast<std::size_t>(num_hosts));
}

int Topology::add_switch() {
  adjacency_.emplace_back();
  return num_vertices() - 1;
}

void Topology::set_ingress(int vertex) {
  if (vertex < 0 || vertex >= num_vertices()) {
    fail("ingress vertex " + std::to_string(vertex) + " out of range");
  }
  ingress_ = vertex;
}

int Topology::add_link(int a, int b, double capacity_gbps,
                       double latency_us, double idle_w,
                       double nj_per_bit) {
  if (a < 0 || a >= num_vertices() || b < 0 || b >= num_vertices()) {
    fail("link endpoint out of range");
  }
  if (a == b) fail("self-loop links are not allowed");
  Link link;
  link.a = a;
  link.b = b;
  link.capacity_kbps = kbps_from_gbps(capacity_gbps);
  link.latency_ns = ns_from_us(latency_us);
  link.idle_w = idle_w;
  link.nj_per_bit = nj_per_bit;
  if (link.capacity_kbps <= 0) fail("link capacity must round to > 0 kbps");
  const int id = num_links();
  links_.push_back(link);
  adjacency_[static_cast<std::size_t>(a)].push_back(id);
  adjacency_[static_cast<std::size_t>(b)].push_back(id);
  return id;
}

void Topology::check() const {
  if (ingress_ < 0) fail("no ingress vertex set");
  std::vector<char> seen(static_cast<std::size_t>(num_vertices()), 0);
  std::vector<int> stack = {ingress_};
  seen[static_cast<std::size_t>(ingress_)] = 1;
  while (!stack.empty()) {
    const int v = stack.back();
    stack.pop_back();
    for (int link : adjacency(v)) {
      const int u = other_end(link, v);
      if (!seen[static_cast<std::size_t>(u)]) {
        seen[static_cast<std::size_t>(u)] = 1;
        stack.push_back(u);
      }
    }
  }
  for (int h = 0; h < num_hosts_; ++h) {
    if (!seen[static_cast<std::size_t>(h)]) {
      fail("host " + std::to_string(h) + " unreachable from ingress");
    }
  }
}

namespace {

// single-rack: one ToR switch doubling as the ingress; every host hangs
// off it with an edge link. The degenerate fabric — one hop, pure
// shared-capacity contention.
Topology build_single_rack(const TopologySpec& s, int hosts) {
  Topology t(hosts);
  const int tor = t.add_switch();
  t.set_ingress(tor);
  for (int h = 0; h < hosts; ++h) {
    t.add_link(h, tor, s.link_gbps, s.link_latency_us, s.link_idle_w,
               s.link_nj_per_bit);
  }
  return t;
}

// leaf-spine: ceil(hosts/hosts_per_leaf) leaves, each connected to every
// spine; the ingress gateway hangs off every spine, so all host paths are
// 3 hops (gateway-spine, spine-leaf, leaf-host) and symmetric.
Topology build_leaf_spine(const TopologySpec& s, int hosts) {
  Topology t(hosts);
  const int leaves = (hosts + s.hosts_per_leaf - 1) / s.hosts_per_leaf;
  std::vector<int> leaf(static_cast<std::size_t>(leaves));
  std::vector<int> spine(static_cast<std::size_t>(s.spines));
  for (int l = 0; l < leaves; ++l) leaf[static_cast<std::size_t>(l)] = t.add_switch();
  for (int sp = 0; sp < s.spines; ++sp) {
    spine[static_cast<std::size_t>(sp)] = t.add_switch();
  }
  const int gateway = t.add_switch();
  t.set_ingress(gateway);
  for (int h = 0; h < hosts; ++h) {
    t.add_link(h, leaf[static_cast<std::size_t>(h / s.hosts_per_leaf)],
               s.link_gbps, s.link_latency_us, s.link_idle_w,
               s.link_nj_per_bit);
  }
  for (int l = 0; l < leaves; ++l) {
    for (int sp = 0; sp < s.spines; ++sp) {
      t.add_link(leaf[static_cast<std::size_t>(l)],
                 spine[static_cast<std::size_t>(sp)], s.core_gbps,
                 s.core_latency_us, s.link_idle_w, s.link_nj_per_bit);
    }
  }
  for (int sp = 0; sp < s.spines; ++sp) {
    t.add_link(gateway, spine[static_cast<std::size_t>(sp)], s.core_gbps,
               s.core_latency_us, s.link_idle_w, s.link_nj_per_bit);
  }
  return t;
}

// fat-tree(k): k pods of k/2 edge + k/2 aggregation switches, (k/2)^2
// cores, k^2/4 * k hosts max. Hosts fill pods in order; the ingress
// gateway attaches to every core switch.
Topology build_fat_tree(const TopologySpec& s, int hosts) {
  const int k = s.fat_k;
  const int half = k / 2;
  require_fat_tree_fits(k, hosts);
  Topology t(hosts);
  // Pods are only instantiated as needed to attach `hosts` hosts.
  const int hosts_per_pod = half * half;
  const int pods = std::min(k, (hosts + hosts_per_pod - 1) / hosts_per_pod);
  std::vector<std::vector<int>> edge(static_cast<std::size_t>(pods));
  std::vector<std::vector<int>> agg(static_cast<std::size_t>(pods));
  for (int p = 0; p < pods; ++p) {
    for (int e = 0; e < half; ++e) {
      edge[static_cast<std::size_t>(p)].push_back(t.add_switch());
    }
    for (int a = 0; a < half; ++a) {
      agg[static_cast<std::size_t>(p)].push_back(t.add_switch());
    }
  }
  std::vector<int> core(static_cast<std::size_t>(half * half));
  for (int c = 0; c < half * half; ++c) {
    core[static_cast<std::size_t>(c)] = t.add_switch();
  }
  const int gateway = t.add_switch();
  t.set_ingress(gateway);
  for (int h = 0; h < hosts; ++h) {
    const int p = h / hosts_per_pod;
    const int e = (h % hosts_per_pod) / half;
    t.add_link(h, edge[static_cast<std::size_t>(p)][static_cast<std::size_t>(e)],
               s.link_gbps, s.link_latency_us, s.link_idle_w,
               s.link_nj_per_bit);
  }
  for (int p = 0; p < pods; ++p) {
    for (int e = 0; e < half; ++e) {
      for (int a = 0; a < half; ++a) {
        t.add_link(edge[static_cast<std::size_t>(p)][static_cast<std::size_t>(e)],
                   agg[static_cast<std::size_t>(p)][static_cast<std::size_t>(a)],
                   s.core_gbps, s.core_latency_us, s.link_idle_w,
                   s.link_nj_per_bit);
      }
    }
  }
  // Aggregation switch a of each pod uplinks to cores [a*half, (a+1)*half).
  for (int p = 0; p < pods; ++p) {
    for (int a = 0; a < half; ++a) {
      for (int c = 0; c < half; ++c) {
        t.add_link(agg[static_cast<std::size_t>(p)][static_cast<std::size_t>(a)],
                   core[static_cast<std::size_t>(a * half + c)], s.core_gbps,
                   s.core_latency_us, s.link_idle_w, s.link_nj_per_bit);
      }
    }
  }
  for (int c = 0; c < half * half; ++c) {
    t.add_link(gateway, core[static_cast<std::size_t>(c)], s.core_gbps,
               s.core_latency_us, s.link_idle_w, s.link_nj_per_bit);
  }
  return t;
}

// edge-core: ceil(hosts/hosts_per_leaf) edge switches, `spines` cores in
// a full mesh, each edge dual-homed to cores e%C and (e+1)%C — but the
// ingress gateway attaches to core 0 ONLY, so hop counts and contention
// are deliberately heterogeneous across hosts (the geometry where
// topology-aware placement visibly beats network-blind bestfit).
Topology build_edge_core(const TopologySpec& s, int hosts) {
  Topology t(hosts);
  const int edges = (hosts + s.hosts_per_leaf - 1) / s.hosts_per_leaf;
  const int cores = s.spines;
  std::vector<int> edge(static_cast<std::size_t>(edges));
  std::vector<int> core(static_cast<std::size_t>(cores));
  for (int e = 0; e < edges; ++e) edge[static_cast<std::size_t>(e)] = t.add_switch();
  for (int c = 0; c < cores; ++c) core[static_cast<std::size_t>(c)] = t.add_switch();
  const int gateway = t.add_switch();
  t.set_ingress(gateway);
  for (int h = 0; h < hosts; ++h) {
    t.add_link(h, edge[static_cast<std::size_t>(h / s.hosts_per_leaf)],
               s.link_gbps, s.link_latency_us, s.link_idle_w,
               s.link_nj_per_bit);
  }
  for (int e = 0; e < edges; ++e) {
    t.add_link(edge[static_cast<std::size_t>(e)],
               core[static_cast<std::size_t>(e % cores)], s.core_gbps,
               s.core_latency_us, s.link_idle_w, s.link_nj_per_bit);
    if (cores > 1 && (e + 1) % cores != e % cores) {
      t.add_link(edge[static_cast<std::size_t>(e)],
                 core[static_cast<std::size_t>((e + 1) % cores)], s.core_gbps,
                 s.core_latency_us, s.link_idle_w, s.link_nj_per_bit);
    }
  }
  for (int c1 = 0; c1 < cores; ++c1) {
    for (int c2 = c1 + 1; c2 < cores; ++c2) {
      t.add_link(core[static_cast<std::size_t>(c1)],
                 core[static_cast<std::size_t>(c2)], s.core_gbps,
                 s.core_latency_us, s.link_idle_w, s.link_nj_per_bit);
    }
  }
  t.add_link(gateway, core[0], s.core_gbps, s.core_latency_us, s.link_idle_w,
             s.link_nj_per_bit);
  return t;
}

}  // namespace

Topology Topology::build(const TopologySpec& spec, int num_hosts) {
  validate_spec(spec, num_hosts);
  Topology t = [&] {
    if (spec.preset == "single-rack") return build_single_rack(spec, num_hosts);
    if (spec.preset == "leaf-spine") return build_leaf_spine(spec, num_hosts);
    if (spec.preset == "fat-tree") return build_fat_tree(spec, num_hosts);
    return build_edge_core(spec, num_hosts);
  }();
  t.check();
  return t;
}

}  // namespace greennfv::topology
