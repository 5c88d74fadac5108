#include "nfvsim/chain.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "telemetry/metrics.hpp"

namespace greennfv::nfvsim {

ServiceChain::ServiceChain(std::string name,
                           const std::vector<std::string>& nf_names)
    : name_(std::move(name)) {
  GNFV_REQUIRE(!nf_names.empty(), "ServiceChain: empty NF list");
  static auto& built = telemetry::metrics::counter("nfvsim.chains_built");
  built.add();
  nfs_.reserve(nf_names.size());
  for (const auto& nf_name : nf_names) nfs_.push_back(make_nf(nf_name));
}

std::vector<hwmodel::NfCostProfile> ServiceChain::cost_profiles() const {
  std::vector<hwmodel::NfCostProfile> profiles;
  profiles.reserve(nfs_.size());
  for (const auto& nf : nfs_) profiles.push_back(nf->profile());
  return profiles;
}

bool ServiceChain::runs(const std::vector<std::string>& nf_names) const {
  return std::equal(nfs_.begin(), nfs_.end(), nf_names.begin(),
                    nf_names.end(),
                    [](const std::unique_ptr<NetworkFunction>& nf,
                       const std::string& nf_name) {
                      return nf->name() == nf_name;
                    });
}

void ServiceChain::reuse_as(std::string name) {
  name_ = std::move(name);
  for (auto& nf : nfs_) nf->reset();
}

bool ServiceChain::process_inline(Packet& pkt) {
  for (auto& nf : nfs_) {
    if (pkt.dropped()) return false;
    Packet* ptr = &pkt;
    nf->process_batch(std::span<Packet* const>(&ptr, 1));
  }
  return !pkt.dropped();
}

std::size_t ServiceChain::process_batch_inline(
    std::span<Packet* const> batch) {
  for (auto& nf : nfs_) nf->process_batch(batch);
  std::size_t delivered = 0;
  for (const Packet* pkt : batch)
    if (!pkt->dropped()) ++delivered;
  return delivered;
}

std::uint64_t ServiceChain::total_nf_drops() const {
  std::uint64_t drops = 0;
  for (const auto& nf : nfs_) drops += nf->dropped();
  return drops;
}

void ServiceChain::reset_stats() {
  for (auto& nf : nfs_) nf->reset_stats();
}

std::vector<std::string> standard_chain_nfs(int variant) {
  switch (variant % 3) {
    case 0: return {"firewall", "router", "ids"};
    case 1: return {"firewall", "nat", "tunnel_gw"};
    default: return {"flow_monitor", "router", "epc"};
  }
}

}  // namespace greennfv::nfvsim
