#include "nfvsim/chain.hpp"

#include "common/assert.hpp"
#include "telemetry/metrics.hpp"

namespace greennfv::nfvsim {

ServiceChain::ServiceChain(const std::vector<std::string>& nf_names) {
  GNFV_REQUIRE(!nf_names.empty(), "ServiceChain: empty NF list");
  static auto& built = telemetry::metrics::counter("nfvsim.chains_built");
  built.add();
  nfs_.reserve(nf_names.size());
  for (const auto& nf_name : nf_names) nfs_.push_back(make_nf(nf_name));
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

std::vector<std::string> standard_chain_nfs(int variant) {
  switch (variant % 3) {
    case 0: return {"firewall", "router", "ids"};
    case 1: return {"firewall", "nat", "tunnel_gw"};
    default: return {"flow_monitor", "router", "epc"};
  }
}

}  // namespace greennfv::nfvsim
