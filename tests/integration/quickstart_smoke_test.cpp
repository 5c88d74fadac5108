#include <gtest/gtest.h>

#include "common/units.hpp"
#include "core/greennfv.hpp"
#include "core/nf_controller.hpp"
#include "nfvsim/engine_analytic.hpp"
#include "nfvsim/engine_threaded.hpp"
#include "traffic/generator.hpp"

/// Smoke coverage of examples/quickstart.cpp's flow: deploy a chain, apply
/// knobs, run both engines, then push a tiny training budget through the
/// trainer→scheduler path. Counts are kept small — this guards that the
/// end-to-end public API stays wired together, not absolute numbers.

namespace greennfv {
namespace {

using namespace greennfv::nfvsim;

TEST(QuickstartSmoke, DeployKnobsAndBothEngines) {
  OnvmController controller;
  const int chain_id =
      controller.add_chain({"firewall", "router", "ids"});
  ASSERT_GE(chain_id, 0);

  ChainKnobs knobs;
  knobs.cores = 2.0;
  knobs.freq_ghz = 1.8;
  knobs.llc_fraction = 0.5;
  knobs.dma_bytes = 8ull * units::kMiB;
  knobs.batch = 64;
  const ChainKnobs applied =
      controller.apply_knobs(static_cast<std::size_t>(chain_id), knobs);
  EXPECT_FALSE(applied.to_string().empty());

  // Virtual-time engine: a couple of seconds of load must move packets and
  // burn energy.
  traffic::FlowSpec flow = traffic::line_rate_flow(512);
  flow.mean_rate_pps = 1.2e6;
  AnalyticEngine engine(controller, traffic::TrafficGenerator({flow}, 42));
  const auto summary = engine.run(/*windows=*/3, /*dt=*/1.0);
  EXPECT_GT(summary.mean_gbps, 0.0);
  EXPECT_GT(summary.mean_power_w, 0.0);
  EXPECT_GT(summary.energy_j, 0.0);

  // Real threaded data path: every injected packet must be accounted for.
  ThreadedEngine::Options options;
  options.total_packets = 20000;
  ThreadedEngine threaded(controller, options);
  traffic::FlowSpec tflow;
  tflow.pkt_bytes = 512;
  tflow.mean_rate_pps = 1e6;
  const auto report = threaded.run({tflow}, /*seed=*/7);
  EXPECT_EQ(report.generated, options.total_packets);
  EXPECT_GT(report.delivered, 0u);
  EXPECT_TRUE(report.conserved());

  // The batch knob must still be live after the runs.
  knobs.batch = 4;
  controller.apply_knobs(static_cast<std::size_t>(chain_id), knobs);
  const auto small_batch = engine.run(2, 1.0);
  knobs.batch = 192;
  controller.apply_knobs(static_cast<std::size_t>(chain_id), knobs);
  const auto large_batch = engine.run(2, 1.0);
  EXPECT_GT(small_batch.mean_gbps, 0.0);
  // Directional: batching amortizes per-packet overhead, so a 48x larger
  // batch must raise throughput — pins that the knob actually propagates.
  EXPECT_GT(large_batch.mean_gbps, small_batch.mean_gbps);
}

TEST(QuickstartSmoke, TrainerToSchedulerPath) {
  core::TrainerConfig config;
  config.env.num_chains = 2;
  config.env.num_flows = 3;
  config.env.window_s = 2.0;
  config.env.sub_windows = 2;
  config.env.steps_per_episode = 2;
  config.episodes = 4;  // tiny: wiring, not convergence
  config.ddpg.batch_size = 8;
  config.seed = 42;

  core::GreenNfvTrainer trainer(config);
  const core::TrainResult result = trainer.train();
  EXPECT_EQ(result.episodes, config.episodes);
  EXPECT_GT(result.tail_gbps, 0.0);

  auto scheduler = trainer.make_scheduler("smoke");
  ASSERT_NE(scheduler, nullptr);
  const core::EvalResult eval =
      core::evaluate_scheduler(config.env, *scheduler, /*windows=*/2, 99);
  EXPECT_EQ(eval.windows, 2);
  EXPECT_GT(eval.mean_gbps, 0.0);
  EXPECT_GT(eval.mean_energy_j, 0.0);
}

}  // namespace
}  // namespace greennfv
