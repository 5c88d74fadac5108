#include "nfvsim/chain.hpp"

#include "common/assert.hpp"

namespace greennfv::nfvsim {

ServiceChain::ServiceChain(std::string name,
                           const std::vector<std::string>& nf_names)
    : name_(std::move(name)) {
  GNFV_REQUIRE(!nf_names.empty(), "ServiceChain: empty NF list");
  nfs_.reserve(nf_names.size());
  for (const auto& nf_name : nf_names) nfs_.push_back(make_nf(nf_name));
}

std::vector<hwmodel::NfCostProfile> ServiceChain::cost_profiles() const {
  std::vector<hwmodel::NfCostProfile> profiles;
  profiles.reserve(nfs_.size());
  for (const auto& nf : nfs_) profiles.push_back(nf->profile());
  return profiles;
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
