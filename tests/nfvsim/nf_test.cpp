#include "nfvsim/nf.hpp"

#include <gtest/gtest.h>

namespace greennfv::nfvsim {
namespace {

Packet make_packet(std::uint32_t dst_ip = 0xC0A80101,
                   std::uint16_t dst_port = 80) {
  Packet pkt;
  pkt.id = 1;
  pkt.flow_id = 0;
  pkt.frame_bytes = 512;
  pkt.src_ip = 0xC0A80002;
  pkt.dst_ip = dst_ip;
  pkt.src_port = 12345;
  pkt.dst_port = dst_port;
  return pkt;
}

TEST(Firewall, DeniesSshToManagementSubnet) {
  FirewallNf fw;
  Packet pkt = make_packet(0x0A000001, 22);  // 10.0.0.1:22
  fw.process(pkt);
  EXPECT_TRUE(pkt.dropped());
  EXPECT_EQ(fw.dropped(), 1u);
}

TEST(Firewall, DeniesBadPortRange) {
  FirewallNf fw;
  Packet pkt = make_packet(0xC0A80101, 6010);
  fw.process(pkt);
  EXPECT_TRUE(pkt.dropped());
}

TEST(Firewall, AcceptsByDefault) {
  FirewallNf fw;
  Packet pkt = make_packet(0xC0A80101, 443);
  fw.process(pkt);
  EXPECT_FALSE(pkt.dropped());
  EXPECT_EQ(fw.dropped(), 0u);
}

TEST(Firewall, FirstMatchWins) {
  // A custom accept rule shadowing the deny.
  FirewallNf::Rule accept_all;
  accept_all.deny = false;
  FirewallNf fw({accept_all});
  Packet pkt = make_packet(0x0A000001, 22);
  fw.process(pkt);
  EXPECT_FALSE(pkt.dropped());
}

TEST(Nat, SameConnectionKeepsSamePort) {
  NatNf nat;
  Packet a = make_packet();
  Packet b = make_packet();  // identical 5-tuple
  nat.process(a);
  nat.process(b);
  EXPECT_EQ(a.src_port, b.src_port);
  EXPECT_EQ(a.src_ip, b.src_ip);
  EXPECT_TRUE(a.flags & Packet::kFlagNatRewritten);
  EXPECT_EQ(nat.table_size(), 1u);
}

TEST(Nat, DistinctConnectionsGetDistinctPorts) {
  NatNf nat;
  Packet a = make_packet();
  Packet b = make_packet();
  b.src_port = 54321;  // different tuple
  nat.process(a);
  nat.process(b);
  EXPECT_NE(a.src_port, b.src_port);
  EXPECT_EQ(nat.table_size(), 2u);
}

TEST(Router, LongestPrefixWins) {
  RouterNf router;
  EXPECT_EQ(router.lookup(0x0A010105), 3);  // 10.1.1.5 -> /24 route
  EXPECT_EQ(router.lookup(0x0A010205), 2);  // 10.1.2.5 -> /16 route
  EXPECT_EQ(router.lookup(0x0A020305), 1);  // 10.2.3.5 -> /8 route
  EXPECT_EQ(router.lookup(0x08080808), 0);  // 8.8.8.8 -> default
  EXPECT_EQ(router.lookup(0xC0A80101), 4);  // 192.168.1.1 -> /16
  EXPECT_EQ(router.lookup(0xAC10FFFF), 5);  // 172.16.255.255 -> /12
}

TEST(Router, DecrementsTtlAndDropsExpired) {
  RouterNf router;
  Packet pkt = make_packet();
  pkt.ttl = 2;
  router.process(pkt);
  EXPECT_EQ(pkt.ttl, 1);
  EXPECT_FALSE(pkt.dropped());
  pkt.ttl = 0;
  router.process(pkt);
  EXPECT_TRUE(pkt.dropped());
}

TEST(Router, NoRouteDrops) {
  // Router with only one specific prefix: everything else has no route.
  RouterNf router({{0x0A000000, 8, 1}});
  Packet pkt = make_packet(0x08080808);
  router.process(pkt);
  EXPECT_TRUE(pkt.dropped());
}

TEST(Ids, DigestDependsOnPayloadSize) {
  IdsNf ids;
  Packet small = make_packet();
  small.frame_bytes = 64;
  Packet large = make_packet();
  large.frame_bytes = 1518;
  ids.process(small);
  ids.process(large);
  EXPECT_NE(small.payload_digest, large.payload_digest);
}

TEST(Ids, AlertsOnSomeTraffic) {
  IdsNf ids;
  int alerted = 0;
  for (std::uint64_t i = 0; i < 20000; ++i) {
    Packet pkt = make_packet();
    pkt.id = i;
    pkt.payload_digest = i * 977;
    ids.process(pkt);
    if (pkt.flags & Packet::kFlagAlerted) ++alerted;
  }
  // Deterministic pseudo-signature rate ~1/1009.
  EXPECT_GT(alerted, 3);
  EXPECT_LT(alerted, 200);
  EXPECT_EQ(ids.alerts(), static_cast<std::uint64_t>(alerted));
}

TEST(TunnelGw, EncapDecapRoundTrip) {
  TunnelGwNf tunnel;
  Packet pkt = make_packet();
  const std::uint32_t original = pkt.frame_bytes;
  tunnel.process(pkt);
  EXPECT_TRUE(pkt.flags & Packet::kFlagTunneled);
  EXPECT_EQ(pkt.frame_bytes, original + TunnelGwNf::kEncapOverheadBytes);
  tunnel.process(pkt);
  EXPECT_FALSE(pkt.flags & Packet::kFlagTunneled);
  EXPECT_EQ(pkt.frame_bytes, original);
}

TEST(TunnelGw, EncapRespectsMtu) {
  TunnelGwNf tunnel;
  Packet pkt = make_packet();
  pkt.frame_bytes = 1500;
  tunnel.process(pkt);
  EXPECT_LE(pkt.frame_bytes, 1518u);
}

TEST(Epc, AccumulatesBearerState) {
  EpcNf epc;
  for (int i = 0; i < 10; ++i) {
    Packet pkt = make_packet();
    epc.process(pkt);
  }
  // Digest must evolve with the charging counters.
  Packet probe = make_packet();
  const std::uint64_t before = probe.payload_digest;
  epc.process(probe);
  EXPECT_NE(probe.payload_digest, before);
}

TEST(FlowMonitor, CountsDistinctFlows) {
  FlowMonitorNf monitor;
  for (std::uint32_t flow = 0; flow < 5; ++flow) {
    for (int i = 0; i < 3; ++i) {
      Packet pkt = make_packet();
      pkt.flow_id = flow;
      monitor.process(pkt);
    }
  }
  EXPECT_EQ(monitor.flows_seen(), 5u);
}

TEST(NfFactory, BuildsEveryCatalogEntry) {
  for (const auto& name : hwmodel::nf_catalog::names()) {
    const auto nf = make_nf(name);
    ASSERT_NE(nf, nullptr);
    EXPECT_EQ(nf->name(), name);
  }
  EXPECT_THROW(make_nf("nope"), std::invalid_argument);
}

TEST(NfBase, BatchSkipsDroppedPackets) {
  FirewallNf fw;
  Packet ok = make_packet(0xC0A80101, 443);
  Packet dead = make_packet();
  dead.mark_dropped();
  Packet* batch[] = {&ok, &dead};
  fw.process_batch(std::span<Packet* const>(batch, 2));
  EXPECT_EQ(fw.processed(), 1u);  // dropped packet not processed
}

}  // namespace
}  // namespace greennfv::nfvsim
