#include "nfvsim/chain.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "hwmodel/nf_cost.hpp"

namespace greennfv::nfvsim {
namespace {

TEST(Chain, BuildsFromCatalogNames) {
  ServiceChain chain({"firewall", "router", "ids"});
  EXPECT_EQ(chain.num_nfs(), 3u);
  EXPECT_EQ(chain.nf(0).name(), "firewall");
  EXPECT_EQ(chain.nf(2).name(), "ids");
}

TEST(Chain, CostProfilesMatchOrder) {
  ServiceChain chain({"nat", "epc"});
  ASSERT_EQ(chain.num_nfs(), 2u);
  EXPECT_EQ(chain.nf(0).profile().name, "nat");
  EXPECT_EQ(chain.nf(1).profile().name, "epc");
  EXPECT_EQ(chain.nf(1).profile().base_cycles,
            hwmodel::nf_catalog::epc().base_cycles);
}

TEST(Chain, InlineProcessingDelivers) {
  ServiceChain chain({"firewall", "router"});
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
  ServiceChain chain({"firewall", "router"});
  Packet pkt;
  pkt.dst_ip = 0x0A000001;  // firewall denies ssh to 10/8
  pkt.dst_port = 22;
  pkt.frame_bytes = 256;
  pkt.ttl = 64;
  EXPECT_FALSE(chain.process_inline(pkt));
  EXPECT_EQ(pkt.ttl, 64);  // router never saw it
  EXPECT_EQ(chain.nf(0).dropped(), 1u);
  EXPECT_EQ(chain.nf(1).dropped(), 0u);
}

TEST(Chain, BatchInlineCountsDeliveries) {
  ServiceChain chain({"firewall"});
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

TEST(Chain, StandardChainsAreThreeNfs) {
  for (int variant = 0; variant < 3; ++variant) {
    const auto names = standard_chain_nfs(variant);
    EXPECT_EQ(names.size(), 3u);
    ServiceChain chain(names);
    EXPECT_EQ(chain.num_nfs(), 3u);
  }
}

TEST(Chain, RejectsEmptyNfList) {
  EXPECT_DEATH(ServiceChain(std::vector<std::string>{}), "empty NF list");
}

}  // namespace
}  // namespace greennfv::nfvsim
