#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "hwmodel/nf_cost.hpp"
#include "nfvsim/nf.hpp"
#include "nfvsim/packet.hpp"

/// \file chain.hpp
/// A service chain: NFs in series connection (the paper's deployment:
/// "Each node hosts an NF chain with three Network functions. Network
/// functions are chained with a series connection."). The chain owns its
/// NFs and exposes the cost profiles consumed by the analytic model. It
/// holds no packet queues: the threaded engine owns the RX ring it feeds
/// each chain through, so an analytic node carries no packet buffers.
/// Every construction counts in the `nfvsim.chains_built` metric.

namespace greennfv::nfvsim {

class ServiceChain {
 public:
  /// Builds a chain from catalog names, e.g. {"firewall","router","ids"}.
  ServiceChain(std::string name, const std::vector<std::string>& nf_names);

  ServiceChain(const ServiceChain&) = delete;
  ServiceChain& operator=(const ServiceChain&) = delete;
  ServiceChain(ServiceChain&&) = default;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::size_t num_nfs() const { return nfs_.size(); }
  [[nodiscard]] NetworkFunction& nf(std::size_t i) { return *nfs_.at(i); }
  [[nodiscard]] const NetworkFunction& nf(std::size_t i) const {
    return *nfs_.at(i);
  }

  /// Cost profiles of all NFs, in chain order (for hwmodel::CostModel).
  [[nodiscard]] std::vector<hwmodel::NfCostProfile> cost_profiles() const;

  /// Whether the chain's NFs are exactly `nf_names`, in order.
  [[nodiscard]] bool runs(const std::vector<std::string>& nf_names) const;

  /// Renames the chain and resets every NF: afterwards it is
  /// indistinguishable from ServiceChain(name, its NF names). How a
  /// controller redeploys a composition without building its NFs again.
  void reuse_as(std::string name);

  /// Runs one packet through every NF inline (no rings); returns false if
  /// some NF dropped it. Used by tests and the quickstart example.
  bool process_inline(Packet& pkt);

  /// Runs a burst through every NF inline; returns delivered count.
  std::size_t process_batch_inline(std::span<Packet* const> batch);

  /// Sum of per-NF drop counters.
  [[nodiscard]] std::uint64_t total_nf_drops() const;

  void reset_stats();

 private:
  std::string name_;
  std::vector<std::unique_ptr<NetworkFunction>> nfs_;
};

/// The 3-NF chains used throughout the paper's evaluation. Index selects a
/// composition; compositions differ in weight so nodes are heterogeneous.
[[nodiscard]] std::vector<std::string> standard_chain_nfs(int variant);

}  // namespace greennfv::nfvsim
