#include "nfvsim/engine_analytic.hpp"

#include <gtest/gtest.h>

#include "nfvsim/chain.hpp"
#include "traffic/generator.hpp"

namespace greennfv::nfvsim {
namespace {

OnvmController make_controller(int chains = 2) {
  OnvmController controller;
  for (int c = 0; c < chains; ++c)
    controller.add_chain(standard_chain_nfs(c));
  return controller;
}

traffic::TrafficGenerator make_generator(int chains = 2) {
  return traffic::TrafficGenerator(
      traffic::make_eval_flows(4, chains, 8.0, 21), 21);
}

TEST(AnalyticEngine, StepAdvancesTimeAndEnergy) {
  OnvmController controller = make_controller();
  AnalyticEngine engine(controller, make_generator());
  const WindowMetrics m = engine.step(1.0);
  EXPECT_NEAR(m.dt_s, 1.0, 1e-12);
  EXPECT_NEAR(m.energy_j, m.power_w() * 1.0, 1e-9);
  EXPECT_NEAR(engine.time_s(), 1.0, 1e-12);
  EXPECT_NEAR(engine.meter().total_joules(), m.energy_j, 1e-9);
  EXPECT_GT(m.total_gbps(), 0.0);
}

TEST(AnalyticEngine, RunAggregatesWindows) {
  OnvmController controller = make_controller();
  AnalyticEngine engine(controller, make_generator());
  const auto summary = engine.run(10, 0.5);
  EXPECT_NEAR(summary.duration_s, 5.0, 1e-12);
  EXPECT_GT(summary.mean_gbps, 0.0);
  EXPECT_GT(summary.energy_j, 0.0);
  EXPECT_NEAR(summary.energy_j, engine.meter().total_joules(), 1e-9);
  EXPECT_EQ(summary.chain_gbps.size(), 2u);
  EXPECT_EQ(summary.chain_energy_j.size(), 2u);
  // Chain means sum to the aggregate.
  EXPECT_NEAR(summary.chain_gbps[0] + summary.chain_gbps[1],
              summary.mean_gbps, 1e-6);
}

TEST(AnalyticEngine, KnobChangesTakeEffectNextStep) {
  OnvmController controller = make_controller(1);
  AnalyticEngine engine(controller, traffic::TrafficGenerator(
                                        {traffic::line_rate_flow(512)}, 3));
  ChainKnobs weak;
  weak.cores = 0.2;
  weak.freq_ghz = 1.2;
  weak.batch = 2;
  controller.apply_knobs(0, weak);
  const auto starved = engine.step(1.0);
  ChainKnobs strong;
  strong.cores = 4.0;
  strong.freq_ghz = 2.1;
  strong.batch = 128;
  strong.dma_bytes = 8ull << 20;
  controller.apply_knobs(0, strong);
  const auto fed = engine.step(1.0);
  EXPECT_GT(fed.total_gbps(), starved.total_gbps() * 1.5);
}

TEST(AnalyticEngine, DeterministicForSameSeed) {
  OnvmController c1 = make_controller();
  OnvmController c2 = make_controller();
  AnalyticEngine e1(c1, make_generator());
  AnalyticEngine e2(c2, make_generator());
  for (int i = 0; i < 5; ++i) {
    const auto m1 = e1.step(0.5);
    const auto m2 = e2.step(0.5);
    EXPECT_DOUBLE_EQ(m1.total_gbps(), m2.total_gbps());
    EXPECT_DOUBLE_EQ(m1.power_w(), m2.power_w());
  }
}

TEST(AnalyticEngine, ResetClearsClockAndMeter) {
  OnvmController controller = make_controller();
  AnalyticEngine engine(controller, make_generator());
  (void)engine.run(4, 1.0);
  engine.reset(99);
  EXPECT_NEAR(engine.time_s(), 0.0, 1e-12);
  EXPECT_NEAR(engine.meter().total_joules(), 0.0, 1e-12);
}

TEST(AnalyticEngine, RejectsFlowsForMissingChains) {
  OnvmController controller = make_controller(1);
  auto flows = traffic::make_eval_flows(4, 3, 8.0, 21);  // chains 0..2
  EXPECT_DEATH(AnalyticEngine(controller,
                              traffic::TrafficGenerator(flows, 21)),
               "chain the controller lacks");
}

TEST(AnalyticEngine, DropFractionBounded) {
  OnvmController controller = make_controller();
  AnalyticEngine engine(controller, make_generator());
  const auto summary = engine.run(8, 0.5);
  EXPECT_GE(summary.drop_fraction, 0.0);
  EXPECT_LE(summary.drop_fraction, 1.0);
}

}  // namespace
}  // namespace greennfv::nfvsim
