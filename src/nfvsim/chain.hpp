#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "nfvsim/nf.hpp"
#include "nfvsim/packet.hpp"

/// \file chain.hpp
/// A service chain: NFs in series connection (the paper's deployment:
/// "Each node hosts an NF chain with three Network functions. Network
/// functions are chained with a series connection."). The chain owns its
/// NFs and is the packet path only: the threaded engine builds one per
/// controller chain for each run, and the analytic model reads the
/// controller's cost profiles instead. It holds no packet queues: the
/// threaded engine owns the RX ring it feeds each chain through. Every
/// construction counts in the `nfvsim.chains_built` metric.

namespace greennfv::nfvsim {

class ServiceChain {
 public:
  /// Builds a chain from catalog names, e.g. {"firewall","router","ids"}.
  explicit ServiceChain(const std::vector<std::string>& nf_names);

  ServiceChain(const ServiceChain&) = delete;
  ServiceChain& operator=(const ServiceChain&) = delete;
  ServiceChain(ServiceChain&&) = default;

  [[nodiscard]] std::size_t num_nfs() const { return nfs_.size(); }
  [[nodiscard]] NetworkFunction& nf(std::size_t i) { return *nfs_.at(i); }
  [[nodiscard]] const NetworkFunction& nf(std::size_t i) const {
    return *nfs_.at(i);
  }

  /// Runs one packet through every NF inline (no rings); returns false if
  /// some NF dropped it. Used by tests and the datapath microbenchmark.
  bool process_inline(Packet& pkt);

  /// Runs a burst through every NF inline; returns delivered count.
  std::size_t process_batch_inline(std::span<Packet* const> batch);

 private:
  std::vector<std::unique_ptr<NetworkFunction>> nfs_;
};

/// The 3-NF chains used throughout the paper's evaluation. Index selects a
/// composition; compositions differ in weight so nodes are heterogeneous.
[[nodiscard]] std::vector<std::string> standard_chain_nfs(int variant);

}  // namespace greennfv::nfvsim
