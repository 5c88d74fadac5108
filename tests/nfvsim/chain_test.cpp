#include "nfvsim/chain.hpp"

#include <gtest/gtest.h>

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
