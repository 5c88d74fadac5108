#include <gtest/gtest.h>

#include "nfvsim/chain.hpp"
#include "nfvsim/engine_analytic.hpp"
#include "nfvsim/engine_threaded.hpp"
#include "traffic/generator.hpp"

/// Cross-engine integration: the same controller + chains drive both the
/// analytic (virtual-time) and threaded (real data path) engines.

namespace greennfv::nfvsim {
namespace {

TEST(Engines, SameControllerDrivesBoth) {
  OnvmController controller;
  controller.add_chain(standard_chain_nfs(0));
  controller.add_chain(standard_chain_nfs(1));
  ChainKnobs knobs = baseline_knobs(controller.spec());
  knobs.batch = 32;
  controller.apply_knobs(0, knobs);
  controller.apply_knobs(1, knobs);

  // Analytic pass.
  AnalyticEngine analytic(
      controller,
      traffic::TrafficGenerator(traffic::make_eval_flows(4, 2, 6.0, 31),
                                31));
  const auto summary = analytic.run(4, 0.5);
  EXPECT_GT(summary.mean_gbps, 0.0);

  // Threaded pass over the same chains.
  std::vector<traffic::FlowSpec> flows;
  for (int c = 0; c < 2; ++c) {
    traffic::FlowSpec f;
    f.id = c;
    f.pkt_bytes = 256;
    f.mean_rate_pps = 1e5;
    f.chain_index = c;
    flows.push_back(f);
  }
  ThreadedEngine::Options options;
  options.total_packets = 20000;
  ThreadedEngine threaded(controller, options);
  const auto report = threaded.run(flows, 33);
  EXPECT_TRUE(report.conserved());
  EXPECT_GT(report.delivered, 0u);
}

TEST(Engines, BatchKnobAffectsBothEngines) {
  // Larger batches help the analytic model; the threaded engine must at
  // minimum keep functioning identically across the sweep (its wall-clock
  // advantage is hardware-dependent and not asserted).
  OnvmController controller;
  controller.add_chain({"firewall", "router"});

  double gbps_small = 0.0;
  double gbps_large = 0.0;
  for (const std::uint32_t batch : {2u, 128u}) {
    ChainKnobs knobs = baseline_knobs(controller.spec());
    knobs.batch = batch;
    knobs.cores = 1.0;
    controller.apply_knobs(0, knobs);
    AnalyticEngine analytic(
        controller,
        traffic::TrafficGenerator({traffic::line_rate_flow(256)}, 35));
    const auto summary = analytic.run(2, 0.5);
    (batch == 2u ? gbps_small : gbps_large) = summary.mean_gbps;

    ThreadedEngine::Options options;
    options.total_packets = 10000;
    ThreadedEngine threaded(controller, options);
    traffic::FlowSpec flow;
    flow.pkt_bytes = 256;
    flow.mean_rate_pps = 1e5;
    const auto report = threaded.run({flow}, 37);
    EXPECT_TRUE(report.conserved());
  }
  EXPECT_GT(gbps_large, gbps_small);
}

}  // namespace
}  // namespace greennfv::nfvsim
