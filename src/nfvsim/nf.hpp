#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "hwmodel/nf_cost.hpp"
#include "nfvsim/packet.hpp"

/// \file nf.hpp
/// The network-function library. Each NF carries (a) a cost profile consumed
/// by the analytic hardware model and (b) a real `process()` implementation
/// the threaded engine runs on actual packets — firewalls match ACLs, the
/// router does longest-prefix matching, the IDS folds payload bytes, etc.
/// The pairing keeps the simulator honest: the code path a packet takes is
/// genuine; only its *cycle cost* is modelled.

namespace greennfv::nfvsim {

class NetworkFunction {
 public:
  explicit NetworkFunction(hwmodel::NfCostProfile profile)
      : profile_(std::move(profile)) {}
  virtual ~NetworkFunction() = default;

  NetworkFunction(const NetworkFunction&) = delete;
  NetworkFunction& operator=(const NetworkFunction&) = delete;

  /// Processes one packet in place; may set kFlagDropped.
  virtual void process(Packet& pkt) = 0;

  /// Processes a burst; skips packets already dropped upstream.
  void process_batch(std::span<Packet* const> batch);

  [[nodiscard]] const hwmodel::NfCostProfile& profile() const {
    return profile_;
  }
  [[nodiscard]] const std::string& name() const { return profile_.name; }

  [[nodiscard]] std::uint64_t processed() const { return processed_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

 protected:
  void count_drop() { ++dropped_; }

 private:
  hwmodel::NfCostProfile profile_;
  std::uint64_t processed_ = 0;
  std::uint64_t dropped_ = 0;
};

/// Stateless ACL firewall: first-match over a rule list, default accept.
class FirewallNf final : public NetworkFunction {
 public:
  struct Rule {
    std::uint32_t src_ip = 0;
    std::uint32_t src_mask = 0;  ///< 0 = wildcard
    std::uint32_t dst_ip = 0;
    std::uint32_t dst_mask = 0;
    std::uint16_t dst_port_lo = 0;
    std::uint16_t dst_port_hi = 0xFFFF;
    bool deny = true;
  };

  explicit FirewallNf(std::vector<Rule> rules = default_rules());
  void process(Packet& pkt) override;

  [[nodiscard]] static std::vector<Rule> default_rules();

 private:
  std::vector<Rule> rules_;
};

/// Source NAT: allocates external ports per connection, rewrites the
/// source tuple.
class NatNf final : public NetworkFunction {
 public:
  NatNf();
  void process(Packet& pkt) override;

  [[nodiscard]] std::size_t table_size() const { return table_.size(); }

 private:
  static constexpr std::uint16_t kFirstPort = 1024;

  std::unordered_map<std::uint64_t, std::uint16_t> table_;
  std::uint16_t next_port_ = kFirstPort;
  std::uint32_t external_ip_;
};

/// IPv4 router: longest-prefix match over a binary trie, TTL handling.
class RouterNf final : public NetworkFunction {
 public:
  struct Route {
    std::uint32_t prefix = 0;
    int prefix_len = 0;
    int next_hop = 0;
  };

  explicit RouterNf(const std::vector<Route>& routes = default_routes());
  void process(Packet& pkt) override;

  /// LPM lookup; returns next hop or -1 when no route matches.
  [[nodiscard]] int lookup(std::uint32_t dst_ip) const;

  [[nodiscard]] static std::vector<Route> default_routes();

 private:
  struct TrieNode {
    int children[2] = {-1, -1};
    int next_hop = -1;
  };
  std::vector<TrieNode> trie_;
};

/// Signature IDS: payload-proportional scanning work; raises an alert flag
/// on (deterministic pseudo-)matches. Heaviest per-byte cost in the catalog.
class IdsNf final : public NetworkFunction {
 public:
  IdsNf();
  void process(Packet& pkt) override;

  [[nodiscard]] std::uint64_t alerts() const { return alerts_; }

 private:
  std::uint64_t alerts_ = 0;
};

/// VXLAN-style tunnel gateway: encapsulates on ingress, decapsulates
/// tunneled packets on a second pass.
class TunnelGwNf final : public NetworkFunction {
 public:
  TunnelGwNf();
  void process(Packet& pkt) override;

  static constexpr std::uint32_t kEncapOverheadBytes = 50;
};

/// Evolved-Packet-Core-style heavyweight NF: bearer lookup + charging
/// counters + QoS bucket per packet.
class EpcNf final : public NetworkFunction {
 public:
  EpcNf();
  void process(Packet& pkt) override;

 private:
  struct Bearer {
    std::uint64_t bytes = 0;
    std::uint64_t packets = 0;
    std::uint32_t qos_class = 0;
  };
  std::unordered_map<std::uint32_t, Bearer> bearers_;
};

/// Passive per-flow accounting.
class FlowMonitorNf final : public NetworkFunction {
 public:
  FlowMonitorNf();
  void process(Packet& pkt) override;

  [[nodiscard]] std::size_t flows_seen() const { return counters_.size(); }

 private:
  struct Counter {
    std::uint64_t packets = 0;
    std::uint64_t bytes = 0;
  };
  std::unordered_map<std::uint32_t, Counter> counters_;
};

/// Instantiates an NF by catalog name ("firewall", "nat", "router", "ids",
/// "tunnel_gw", "epc", "flow_monitor"). Throws std::invalid_argument for
/// unknown names.
[[nodiscard]] std::unique_ptr<NetworkFunction> make_nf(
    const std::string& name);

}  // namespace greennfv::nfvsim
