#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "nfvsim/engine_threaded.hpp"
#include "traffic/generator.hpp"

/// Property coverage for ThreadedRunReport::conserved() under stress: no
/// matter how hard the generator outruns the pool and the rings, every
/// injected packet must end up in exactly one of {delivered, nf_drops,
/// rx_ring_drops} (pool-exhaustion drops are folded into rx_ring_drops by
/// the engine). The parameter grid deliberately spans pool starvation,
/// burst pressure, and tiny worker batches.

namespace greennfv::nfvsim {
namespace {

std::vector<traffic::FlowSpec> hot_flows(int chains, double rate_pps) {
  std::vector<traffic::FlowSpec> flows;
  for (int c = 0; c < chains; ++c) {
    traffic::FlowSpec f;
    f.id = c;
    f.pkt_bytes = 256;
    f.mean_rate_pps = rate_pps;
    f.chain_index = c;
    flows.push_back(f);
  }
  return flows;
}

// (pool_capacity, gen_burst, batch)
using StressParam = std::tuple<std::size_t, std::size_t, std::uint32_t>;

class ConservationUnderPressure
    : public ::testing::TestWithParam<StressParam> {};

TEST_P(ConservationUnderPressure, EveryPacketAccounted) {
  const auto [pool_capacity, gen_burst, batch] = GetParam();

  OnvmController controller;
  controller.add_chain({"firewall", "router", "ids"});
  controller.add_chain({"firewall", "router"});
  for (std::size_t c = 0; c < 2; ++c) {
    ChainKnobs knobs = baseline_knobs(controller.spec());
    knobs.batch = batch;
    controller.apply_knobs(c, knobs);
  }

  ThreadedEngine::Options options;
  options.total_packets = 40000;
  options.pool_capacity = pool_capacity;
  options.gen_burst = gen_burst;
  ThreadedEngine engine(controller, options);

  // Offered load far above service rate: backpressure is the common case.
  const auto report = engine.run(hot_flows(2, 5e6), /*seed=*/23);

  EXPECT_EQ(report.generated, options.total_packets);
  EXPECT_TRUE(report.conserved())
      << "generated=" << report.generated << " delivered=" << report.delivered
      << " nf=" << report.nf_drops << " rx=" << report.rx_ring_drops
      << " pool=" << report.pool_exhausted;
  EXPECT_GT(report.delivered, 0u);
  // rx_ring_drops includes the folded-in pool-exhaustion count, so it can
  // never undercount it.
  EXPECT_GE(report.rx_ring_drops, report.pool_exhausted);
  std::uint64_t per_chain_total = 0;
  for (const std::uint64_t d : report.per_chain_delivered) {
    per_chain_total += d;
  }
  EXPECT_EQ(per_chain_total, report.delivered);
}

INSTANTIATE_TEST_SUITE_P(
    PoolAndRingPressure, ConservationUnderPressure,
    ::testing::Values(StressParam{32, 64, 64},    // pool far below one burst
                      StressParam{64, 128, 8},    // big bursts, slow workers
                      StressParam{128, 32, 1},    // batch=1 worst-case drain
                      StressParam{256, 256, 256},  // everything oversized
                      StressParam{8192, 64, 64}));  // roomy control point

TEST(ConservationUnderPressure, TinyPoolActuallyExhausts) {
  OnvmController controller;
  controller.add_chain({"firewall", "router", "ids"});
  ThreadedEngine::Options options;
  options.total_packets = 50000;
  options.pool_capacity = 32;
  options.gen_burst = 64;
  ThreadedEngine engine(controller, options);
  const auto report = engine.run(hot_flows(1, 5e6), /*seed=*/29);
  EXPECT_TRUE(report.conserved());
  // The point of the scenario: the pool must really have starved, otherwise
  // this suite is not exercising the exhaustion path at all.
  EXPECT_GT(report.pool_exhausted, 0u);
}

}  // namespace
}  // namespace greennfv::nfvsim
