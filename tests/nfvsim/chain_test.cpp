#include "nfvsim/chain.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace greennfv::nfvsim {
namespace {

TEST(Chain, BuildsFromCatalogNames) {
  ServiceChain chain("c0", {"firewall", "router", "ids"});
  EXPECT_EQ(chain.num_nfs(), 3u);
  EXPECT_EQ(chain.name(), "c0");
  EXPECT_EQ(chain.nf(0).name(), "firewall");
  EXPECT_EQ(chain.nf(2).name(), "ids");
}

TEST(Chain, CostProfilesMatchOrder) {
  ServiceChain chain("c0", {"nat", "epc"});
  const auto profiles = chain.cost_profiles();
  ASSERT_EQ(profiles.size(), 2u);
  EXPECT_EQ(profiles[0].name, "nat");
  EXPECT_EQ(profiles[1].name, "epc");
}

TEST(Chain, InlineProcessingDelivers) {
  ServiceChain chain("c0", {"firewall", "router"});
  Packet pkt;
  pkt.src_ip = 0xC0A80002;
  pkt.dst_ip = 0x0A010105;
  pkt.dst_port = 443;
  pkt.frame_bytes = 256;
  pkt.ttl = 64;
  EXPECT_TRUE(chain.process_inline(pkt));
  EXPECT_EQ(pkt.ttl, 63);  // router ran
}

TEST(Chain, InlineProcessingStopsAtDrop) {
  ServiceChain chain("c0", {"firewall", "router"});
  Packet pkt;
  pkt.dst_ip = 0x0A000001;  // firewall denies ssh to 10/8
  pkt.dst_port = 22;
  pkt.frame_bytes = 256;
  pkt.ttl = 64;
  EXPECT_FALSE(chain.process_inline(pkt));
  EXPECT_EQ(pkt.ttl, 64);  // router never saw it
  EXPECT_EQ(chain.total_nf_drops(), 1u);
}

TEST(Chain, BatchInlineCountsDeliveries) {
  ServiceChain chain("c0", {"firewall"});
  Packet good;
  good.dst_ip = 0xC0A80101;
  good.dst_port = 443;
  good.frame_bytes = 128;
  Packet bad;
  bad.dst_ip = 0x0A000001;
  bad.dst_port = 22;
  bad.frame_bytes = 128;
  Packet* batch[] = {&good, &bad};
  EXPECT_EQ(chain.process_batch_inline(std::span<Packet* const>(batch, 2)),
            1u);
}

TEST(Chain, ResetStatsClearsDrops) {
  ServiceChain chain("c0", {"firewall"});
  Packet bad;
  bad.dst_ip = 0x0A000001;
  bad.dst_port = 22;
  bad.frame_bytes = 128;
  (void)chain.process_inline(bad);
  EXPECT_GT(chain.total_nf_drops(), 0u);
  chain.reset_stats();
  EXPECT_EQ(chain.total_nf_drops(), 0u);
}

TEST(Chain, ReuseForgetsWhatPacketsTaught) {
  // NAT ports, EPC bearer counters, flow-monitor and IDS tables all
  // depend on earlier packets; a reused chain must process the next
  // packets exactly as a newly built one does.
  const std::vector<std::string> nfs = {"nat", "epc", "flow_monitor", "ids"};
  const auto packet = [](std::uint32_t i) {
    Packet pkt;
    pkt.id = i;
    pkt.flow_id = i % 3;
    pkt.src_ip = 0xC0A80000 + i % 5;
    pkt.dst_ip = 0x0A010105;
    pkt.src_port = static_cast<std::uint16_t>(1000 + i);
    pkt.dst_port = 443;
    pkt.frame_bytes = 512;
    return pkt;
  };
  ServiceChain reused("old", nfs);
  for (std::uint32_t i = 0; i < 40; ++i) {
    Packet pkt = packet(i);
    (void)reused.process_inline(pkt);
  }
  reused.reuse_as("chain1");
  EXPECT_EQ(reused.name(), "chain1");
  EXPECT_TRUE(reused.runs(nfs));
  EXPECT_FALSE(reused.runs({"nat", "epc"}));
  EXPECT_EQ(reused.nf(0).processed(), 0u);

  ServiceChain fresh("chain1", nfs);
  for (std::uint32_t i = 0; i < 40; ++i) {
    Packet a = packet(i);
    Packet b = packet(i);
    EXPECT_EQ(reused.process_inline(a), fresh.process_inline(b));
    EXPECT_EQ(a.src_port, b.src_port) << i;
    EXPECT_EQ(a.payload_digest, b.payload_digest) << i;
    EXPECT_EQ(a.flags, b.flags) << i;
  }
}

TEST(Chain, StandardChainsAreThreeNfs) {
  for (int variant = 0; variant < 3; ++variant) {
    const auto names = standard_chain_nfs(variant);
    EXPECT_EQ(names.size(), 3u);
    ServiceChain chain("v", names);
    EXPECT_EQ(chain.num_nfs(), 3u);
  }
}

TEST(Chain, RejectsEmptyNfList) {
  EXPECT_DEATH(ServiceChain("c0", {}), "empty NF list");
}

}  // namespace
}  // namespace greennfv::nfvsim
