#include "nfvsim/engine_threaded.hpp"

#include <gtest/gtest.h>

#include "nfvsim/chain.hpp"
#include "traffic/generator.hpp"

namespace greennfv::nfvsim {
namespace {

std::vector<traffic::FlowSpec> clean_flows(int chains) {
  // Flows whose packets pass the default firewall/router rules.
  std::vector<traffic::FlowSpec> flows;
  for (int c = 0; c < chains; ++c) {
    traffic::FlowSpec f;
    f.id = c;
    f.pkt_bytes = 256;
    f.mean_rate_pps = 1e5;
    f.chain_index = c;
    flows.push_back(f);
  }
  return flows;
}

TEST(ThreadedEngine, ConservationSingleChain) {
  OnvmController controller;
  controller.add_chain({"firewall", "router"});
  ThreadedEngine::Options options;
  options.total_packets = 20000;
  ThreadedEngine engine(controller, options);
  const auto report = engine.run(clean_flows(1), 5);
  EXPECT_EQ(report.generated, 20000u);
  EXPECT_TRUE(report.conserved())
      << "generated=" << report.generated
      << " delivered=" << report.delivered << " nf=" << report.nf_drops
      << " rx=" << report.rx_ring_drops;
  EXPECT_GT(report.delivered, 0u);
  EXPECT_GT(report.delivered_pps, 0.0);
}

TEST(ThreadedEngine, ConservationTwoChains) {
  OnvmController controller;
  controller.add_chain(standard_chain_nfs(0));
  controller.add_chain(standard_chain_nfs(1));
  ThreadedEngine::Options options;
  options.total_packets = 30000;
  ThreadedEngine engine(controller, options);
  const auto report = engine.run(clean_flows(2), 7);
  EXPECT_TRUE(report.conserved());
  ASSERT_EQ(report.per_chain_delivered.size(), 2u);
  EXPECT_GT(report.per_chain_delivered[0], 0u);
  EXPECT_GT(report.per_chain_delivered[1], 0u);
}

class BatchKnob : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(BatchKnob, RunsAndConservesAtEveryBatchSize) {
  OnvmController controller;
  controller.add_chain({"firewall", "router"});
  ChainKnobs knobs = baseline_knobs(controller.spec());
  knobs.batch = GetParam();
  controller.apply_knobs(0, knobs);
  ThreadedEngine::Options options;
  options.total_packets = 10000;
  ThreadedEngine engine(controller, options);
  const auto report = engine.run(clean_flows(1), 11);
  EXPECT_TRUE(report.conserved());
  EXPECT_GT(report.delivered, 5000u);  // drops possible, collapse not
}

INSTANTIATE_TEST_SUITE_P(Batches, BatchKnob,
                         ::testing::Values(1, 2, 8, 32, 128, 256));

TEST(ThreadedEngine, PollModeAlsoCompletes) {
  OnvmController controller(hwmodel::NodeSpec{}, SchedMode::kPoll);
  controller.add_chain({"firewall"});
  ThreadedEngine::Options options;
  options.total_packets = 10000;
  ThreadedEngine engine(controller, options);
  const auto report = engine.run(clean_flows(1), 13);
  EXPECT_TRUE(report.conserved());
}

TEST(ThreadedEngine, TinyPoolCreatesBackpressureDrops) {
  OnvmController controller;
  controller.add_chain({"firewall", "router", "ids"});
  ThreadedEngine::Options options;
  options.total_packets = 50000;
  options.pool_capacity = 64;  // tiny: generator outruns the worker
  options.gen_burst = 64;
  ThreadedEngine engine(controller, options);
  const auto report = engine.run(clean_flows(1), 17);
  EXPECT_TRUE(report.conserved());
  // With a 64-packet pool, some allocation failures are essentially
  // guaranteed; conservation must still hold (checked above).
  EXPECT_GT(report.delivered, 0u);
}

TEST(ThreadedEngine, FirewallDropsShowAsNfDrops) {
  OnvmController controller;
  controller.add_chain({"firewall"});
  // All packets to the denied port range.
  ThreadedEngine::Options options;
  options.total_packets = 5000;
  ThreadedEngine engine(controller, options);
  // dst ports are random in [0,9000); the 6000-6063 deny band catches some.
  const auto report = engine.run(clean_flows(1), 19);
  EXPECT_TRUE(report.conserved());
  EXPECT_GT(report.nf_drops, 0u);
}

TEST(ThreadedEngine, RedeployBetweenRunsChangesThePacketPath) {
  OnvmController controller;
  controller.add_chain({"firewall"});
  ThreadedEngine::Options options;
  options.total_packets = 5000;
  ThreadedEngine engine(controller, options);
  const auto denied = engine.run(clean_flows(1), 19);
  EXPECT_TRUE(denied.conserved());
  EXPECT_GT(denied.nf_drops, 0u);

  // The engine borrows the controller, so its next run builds the chain
  // the controller holds then: a router on the default FIB drops nothing.
  controller.redeploy(controller.spec(), controller.sched_mode(),
                      {{"router"}});
  const auto routed = engine.run(clean_flows(1), 19);
  EXPECT_TRUE(routed.conserved());
  EXPECT_EQ(routed.nf_drops, 0u);
  EXPECT_GT(routed.delivered, 0u);
}

}  // namespace
}  // namespace greennfv::nfvsim
