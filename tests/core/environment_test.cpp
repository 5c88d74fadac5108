#include "core/environment.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/nf_controller.hpp"

namespace greennfv::core {
namespace {

EnvConfig small_config() {
  EnvConfig config;
  config.num_chains = 2;
  config.num_flows = 4;
  config.total_offered_gbps = 8.0;
  config.window_s = 2.0;
  config.sub_windows = 2;
  config.steps_per_episode = 4;
  config.sla = Sla::energy_efficiency();
  return config;
}

void expect_knobs_equal(const std::vector<nfvsim::ChainKnobs>& got,
                        const std::vector<nfvsim::ChainKnobs>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t c = 0; c < got.size(); ++c) {
    EXPECT_EQ(got[c].cores, want[c].cores) << c;
    EXPECT_EQ(got[c].freq_ghz, want[c].freq_ghz) << c;
    EXPECT_EQ(got[c].llc_fraction, want[c].llc_fraction) << c;
    EXPECT_EQ(got[c].dma_bytes, want[c].dma_bytes) << c;
    EXPECT_EQ(got[c].batch, want[c].batch) << c;
  }
}

/// Holds whatever knobs it is handed, and records them.
class HoldScheduler final : public Scheduler {
 public:
  [[nodiscard]] std::string name() const override { return "hold"; }
  [[nodiscard]] std::vector<nfvsim::ChainKnobs> decide(
      const std::vector<ChainObservation>& obs,
      const std::vector<nfvsim::ChainKnobs>& current) override {
    (void)obs;
    handed.push_back(current);
    return current;
  }

  std::vector<std::vector<nfvsim::ChainKnobs>> handed;
};

TEST(Environment, DimensionsFollowChains) {
  NfvEnvironment env(small_config(), 1);
  EXPECT_EQ(env.state_dim(), 8u);   // 4 signals x 2 chains
  EXPECT_EQ(env.action_dim(), 10u); // 5 knobs x 2 chains
}

TEST(Environment, ResetReturnsLiveState) {
  NfvEnvironment env(small_config(), 2);
  const auto state = env.reset(3);
  ASSERT_EQ(state.size(), 8u);
  for (const double s : state) {
    EXPECT_GE(s, -1.0);
    EXPECT_LE(s, 1.0);
  }
  // Settling window measured something.
  EXPECT_GT(env.last_outcome().throughput_gbps, 0.0);
  EXPECT_GT(env.last_outcome().energy_j, 0.0);
}

TEST(Environment, StepRewardsMatchSla) {
  EnvConfig config = small_config();
  config.sla = Sla::max_throughput(/*budget=*/1e9);  // never violated
  NfvEnvironment env(config, 4);
  (void)env.reset(5);
  const auto result = env.step(std::vector<double>(10, 0.5));
  EXPECT_NEAR(result.reward,
              env.last_outcome().throughput_gbps / 10.0, 1e-9);
  EXPECT_TRUE(env.last_outcome().sla_satisfied);
}

TEST(Environment, ViolationYieldsZeroGatedReward) {
  EnvConfig config = small_config();
  config.sla = Sla::max_throughput(/*budget=*/1.0);  // impossible budget
  NfvEnvironment env(config, 6);
  (void)env.reset(7);
  const auto result = env.step(std::vector<double>(10, 1.0));
  EXPECT_DOUBLE_EQ(result.reward, 0.0);
  EXPECT_FALSE(env.last_outcome().sla_satisfied);
}

TEST(Environment, ShapedRewardGoesNegativeOnViolation) {
  EnvConfig config = small_config();
  config.sla = Sla::max_throughput(1.0);
  config.shaped_reward = true;
  NfvEnvironment env(config, 8);
  (void)env.reset(9);
  const auto result = env.step(std::vector<double>(10, 1.0));
  EXPECT_LT(result.reward, 0.0);
}

TEST(Environment, EpisodeTerminatesAfterConfiguredSteps) {
  NfvEnvironment env(small_config(), 10);
  (void)env.reset(11);
  int steps = 0;
  bool done = false;
  while (!done) {
    done = env.step(std::vector<double>(10, 0.0)).done;
    ++steps;
    ASSERT_LE(steps, 10);
  }
  EXPECT_EQ(steps, 4);
  // Reset starts a fresh episode.
  (void)env.reset(12);
  EXPECT_FALSE(env.step(std::vector<double>(10, 0.0)).done);
}

TEST(Environment, DeterministicForSameSeed) {
  NfvEnvironment env_a(small_config(), 13);
  NfvEnvironment env_b(small_config(), 13);
  (void)env_a.reset(14);
  (void)env_b.reset(14);
  const auto ra = env_a.step(std::vector<double>(10, 0.3));
  const auto rb = env_b.step(std::vector<double>(10, 0.3));
  EXPECT_DOUBLE_EQ(ra.reward, rb.reward);
  for (std::size_t i = 0; i < ra.next_state.size(); ++i)
    EXPECT_DOUBLE_EQ(ra.next_state[i], rb.next_state[i]);
}

TEST(Environment, StrongerKnobsRaiseThroughput) {
  NfvEnvironment env(small_config(), 15);
  (void)env.reset(16);
  (void)env.step(std::vector<double>(10, -1.0));  // weakest config
  const double weak_gbps = env.last_outcome().throughput_gbps;
  (void)env.reset(16);
  std::vector<double> strong(10, 1.0);
  // Keep LLC fractions reasonable across 2 chains (indices 2 and 7).
  strong[2] = 0.0;
  strong[7] = 0.0;
  (void)env.step(strong);
  EXPECT_GT(env.last_outcome().throughput_gbps, weak_gbps);
}

TEST(Environment, RunWindowAppliesKnobs) {
  NfvEnvironment env(small_config(), 17);
  (void)env.reset(18);
  std::vector<nfvsim::ChainKnobs> knobs(
      2, nfvsim::baseline_knobs(hwmodel::NodeSpec{}));
  knobs[0].batch = 111;
  const auto outcome = env.run_window(knobs);
  EXPECT_EQ(env.last_knobs()[0].batch, 111u);
  EXPECT_EQ(outcome.observations.size(), 2u);
  EXPECT_GT(outcome.energy_j, 0.0);
}

TEST(Environment, MeanKnobsAverages) {
  NfvEnvironment env(small_config(), 19);
  (void)env.reset(20);
  std::vector<nfvsim::ChainKnobs> knobs(
      2, nfvsim::baseline_knobs(hwmodel::NodeSpec{}));
  knobs[0].cores = 1.0;
  knobs[1].cores = 3.0;
  (void)env.run_window(knobs);
  EXPECT_NEAR(env.mean_knobs().cores, 2.0, 1e-9);
}

TEST(Environment, ResetKeepsTheKnobsTheControllerHolds) {
  NfvEnvironment env(small_config(), 21);
  const std::vector<nfvsim::ChainKnobs> built = env.last_knobs();
  ASSERT_EQ(built.size(), 2u);
  (void)env.reset(22);
  expect_knobs_equal(env.last_knobs(), built);

  std::vector<nfvsim::ChainKnobs> knobs(
      2, nfvsim::baseline_knobs(hwmodel::NodeSpec{}));
  knobs[0].cores = 1.0;
  knobs[1].cores = 3.0;
  knobs[1].batch = 111;
  (void)env.run_window(knobs);
  const std::vector<nfvsim::ChainKnobs> held = env.last_knobs();
  (void)env.reset(23);
  expect_knobs_equal(env.last_knobs(), held);
  EXPECT_NEAR(env.mean_knobs().cores, 2.0, 1e-9);
  // Re-applying the held knobs keeps them too.
  (void)env.run_window(env.last_knobs());
  expect_knobs_equal(env.last_knobs(), held);

  // A controller run after a reset decides from the held knobs.
  (void)env.reset(24);
  HoldScheduler scheduler;
  NfController controller(env, scheduler);
  (void)controller.run(2);
  ASSERT_EQ(scheduler.handed.size(), 2u);
  expect_knobs_equal(scheduler.handed[0], held);
  expect_knobs_equal(scheduler.handed[1], held);
  expect_knobs_equal(env.last_knobs(), held);
}

}  // namespace
}  // namespace greennfv::core
