#include "nfvsim/nf.hpp"

#include <stdexcept>

#include "common/assert.hpp"

namespace greennfv::nfvsim {

void NetworkFunction::process_batch(std::span<Packet* const> batch) {
  for (Packet* pkt : batch) {
    GNFV_ASSERT(pkt != nullptr, "process_batch: null packet");
    if (pkt->dropped()) continue;
    process(*pkt);
    ++processed_;
  }
}

// --- Firewall -----------------------------------------------------------------

FirewallNf::FirewallNf(std::vector<Rule> rules)
    : NetworkFunction(hwmodel::nf_catalog::firewall()),
      rules_(std::move(rules)) {}

std::vector<FirewallNf::Rule> FirewallNf::default_rules() {
  // Deny a management subnet and a known-bad port range; accept the rest.
  std::vector<Rule> rules;
  Rule mgmt;
  mgmt.dst_ip = 0x0A000000;        // 10.0.0.0/8
  mgmt.dst_mask = 0xFF000000;
  mgmt.dst_port_lo = 22;
  mgmt.dst_port_hi = 22;
  mgmt.deny = true;
  rules.push_back(mgmt);
  Rule badports;
  badports.dst_port_lo = 6000;
  badports.dst_port_hi = 6063;
  badports.deny = true;
  rules.push_back(badports);
  return rules;
}

void FirewallNf::process(Packet& pkt) {
  for (const Rule& rule : rules_) {
    const bool src_match =
        rule.src_mask == 0 || (pkt.src_ip & rule.src_mask) == rule.src_ip;
    const bool dst_match =
        rule.dst_mask == 0 || (pkt.dst_ip & rule.dst_mask) == rule.dst_ip;
    const bool port_match =
        pkt.dst_port >= rule.dst_port_lo && pkt.dst_port <= rule.dst_port_hi;
    if (src_match && dst_match && port_match) {
      if (rule.deny) {
        pkt.mark_dropped();
        count_drop();
      }
      return;  // first match wins
    }
  }
}

// --- NAT -----------------------------------------------------------------------

namespace {

std::uint64_t five_tuple_key(const Packet& pkt) {
  std::uint64_t key = pkt.src_ip;
  key = key * 0x100000001B3ull ^ pkt.dst_ip;
  key = key * 0x100000001B3ull ^ pkt.src_port;
  key = key * 0x100000001B3ull ^ pkt.dst_port;
  key = key * 0x100000001B3ull ^ pkt.ip_proto;
  return key;
}

}  // namespace

NatNf::NatNf()
    : NetworkFunction(hwmodel::nf_catalog::nat()),
      external_ip_(0xC6336401) {}  // 198.51.100.1 (TEST-NET-2)

void NatNf::process(Packet& pkt) {
  const std::uint64_t key = five_tuple_key(pkt);
  auto [it, inserted] = table_.try_emplace(key, next_port_);
  if (inserted) {
    ++next_port_;
    if (next_port_ == 0) next_port_ = kFirstPort;  // wrap the dynamic range
  }
  pkt.src_ip = external_ip_;
  pkt.src_port = it->second;
  pkt.flags |= Packet::kFlagNatRewritten;
}

// --- Router --------------------------------------------------------------------

RouterNf::RouterNf(const std::vector<Route>& routes)
    : NetworkFunction(hwmodel::nf_catalog::router()), trie_(1) {  // root
  for (const Route& route : routes) {
    GNFV_REQUIRE(route.prefix_len >= 0 && route.prefix_len <= 32,
                 "router: bad prefix length");
    int node = 0;
    for (int depth = 0; depth < route.prefix_len; ++depth) {
      const int bit = (route.prefix >> (31 - depth)) & 1;
      if (trie_[static_cast<std::size_t>(node)].children[bit] < 0) {
        trie_[static_cast<std::size_t>(node)].children[bit] =
            static_cast<int>(trie_.size());
        trie_.emplace_back();
      }
      node = trie_[static_cast<std::size_t>(node)].children[bit];
    }
    trie_[static_cast<std::size_t>(node)].next_hop = route.next_hop;
  }
}

std::vector<RouterNf::Route> RouterNf::default_routes() {
  // A small FIB with nested prefixes so LPM order actually matters.
  return {
      {0x00000000, 0, 0},   // default route
      {0x0A000000, 8, 1},   // 10.0.0.0/8
      {0x0A010000, 16, 2},  // 10.1.0.0/16
      {0x0A010100, 24, 3},  // 10.1.1.0/24
      {0xC0A80000, 16, 4},  // 192.168.0.0/16
      {0xAC100000, 12, 5},  // 172.16.0.0/12
  };
}

int RouterNf::lookup(std::uint32_t dst_ip) const {
  int node = 0;
  int best = trie_[0].next_hop;
  for (int depth = 0; depth < 32; ++depth) {
    const int bit = (dst_ip >> (31 - depth)) & 1;
    node = trie_[static_cast<std::size_t>(node)].children[bit];
    if (node < 0) break;
    if (trie_[static_cast<std::size_t>(node)].next_hop >= 0)
      best = trie_[static_cast<std::size_t>(node)].next_hop;
  }
  return best;
}

void RouterNf::process(Packet& pkt) {
  if (pkt.ttl == 0) {
    pkt.mark_dropped();
    count_drop();
    return;
  }
  pkt.ttl -= 1;
  const int hop = lookup(pkt.dst_ip);
  if (hop < 0) {
    pkt.mark_dropped();
    count_drop();
  }
}

// --- IDS -----------------------------------------------------------------------

IdsNf::IdsNf() : NetworkFunction(hwmodel::nf_catalog::ids()) {}

void IdsNf::process(Packet& pkt) {
  // Payload-proportional scan: fold every payload byte's worth of work into
  // the digest (FNV-style), mirroring a DPI pass over the frame.
  std::uint64_t digest = pkt.payload_digest ^ pkt.src_ip;
  const std::uint32_t payload = pkt.frame_bytes;
  for (std::uint32_t i = 0; i < payload; i += 8) {
    digest = (digest ^ (pkt.id + i)) * 0x100000001B3ull;
  }
  pkt.payload_digest = digest;
  // Deterministic pseudo-signature hit rate of ~0.1%.
  if (digest % 1009 == 0) {
    pkt.flags |= Packet::kFlagAlerted;
    ++alerts_;
  }
}

// --- Tunnel gateway ----------------------------------------------------------------

TunnelGwNf::TunnelGwNf() : NetworkFunction(hwmodel::nf_catalog::tunnel_gw()) {}

void TunnelGwNf::process(Packet& pkt) {
  if ((pkt.flags & Packet::kFlagTunneled) == 0) {
    // Encapsulate: VXLAN-ish overhead, keep under the MTU ceiling.
    pkt.frame_bytes = std::min<std::uint32_t>(1518,
                                              pkt.frame_bytes +
                                                  kEncapOverheadBytes);
    pkt.flags |= Packet::kFlagTunneled;
    pkt.payload_digest =
        (pkt.payload_digest ^ 0x7FEDCBA987654321ull) * 0x100000001B3ull;
  } else {
    pkt.frame_bytes = pkt.frame_bytes > kEncapOverheadBytes + 64
                          ? pkt.frame_bytes - kEncapOverheadBytes
                          : 64;
    pkt.flags &= static_cast<std::uint16_t>(~Packet::kFlagTunneled);
  }
}

// --- EPC -----------------------------------------------------------------------

EpcNf::EpcNf() : NetworkFunction(hwmodel::nf_catalog::epc()) {}

void EpcNf::process(Packet& pkt) {
  // Bearer = subscriber session keyed by inner source address.
  Bearer& bearer = bearers_[pkt.src_ip];
  bearer.packets += 1;
  bearer.bytes += pkt.frame_bytes;
  bearer.qos_class = (pkt.dst_port % 9) + 1;  // QCI 1..9
  // Charging-function style digest update (several dependent hashes).
  std::uint64_t digest = pkt.payload_digest;
  digest = (digest ^ bearer.packets) * 0x100000001B3ull;
  digest = (digest ^ bearer.bytes) * 0x100000001B3ull;
  digest = (digest ^ bearer.qos_class) * 0x100000001B3ull;
  pkt.payload_digest = digest;
}

// --- Flow monitor ---------------------------------------------------------------

FlowMonitorNf::FlowMonitorNf()
    : NetworkFunction(hwmodel::nf_catalog::flow_monitor()) {}

void FlowMonitorNf::process(Packet& pkt) {
  Counter& counter = counters_[pkt.flow_id];
  counter.packets += 1;
  counter.bytes += pkt.frame_bytes;
}

// --- Factory --------------------------------------------------------------------

std::unique_ptr<NetworkFunction> make_nf(const std::string& name) {
  if (name == "firewall") return std::make_unique<FirewallNf>();
  if (name == "nat") return std::make_unique<NatNf>();
  if (name == "router") return std::make_unique<RouterNf>();
  if (name == "ids") return std::make_unique<IdsNf>();
  if (name == "tunnel_gw") return std::make_unique<TunnelGwNf>();
  if (name == "epc") return std::make_unique<EpcNf>();
  if (name == "flow_monitor") return std::make_unique<FlowMonitorNf>();
  throw std::invalid_argument("make_nf: unknown NF: " + name);
}

}  // namespace greennfv::nfvsim
