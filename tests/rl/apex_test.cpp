#include "rl/apex.hpp"

#include <gtest/gtest.h>

#include "tests/rl/toy_env.hpp"

namespace greennfv::rl {
namespace {

DdpgConfig toy_ddpg() {
  DdpgConfig config;
  config.state_dim = 2;
  config.action_dim = 2;
  config.actor_hidden = {32, 32};
  config.critic_hidden = {32, 32};
  config.actor_lr = 1e-3;
  config.critic_lr = 2e-3;
  config.gamma = 0.5;
  config.batch_size = 32;
  return config;
}

ApexConfig toy_apex(int actors, int episodes) {
  ApexConfig config;
  config.num_actors = actors;
  config.episodes_per_actor = episodes;
  config.steps_per_episode = 8;
  config.local_buffer_flush = 8;
  config.learn_start = 64;
  config.per.capacity = 1 << 14;
  return config;
}

EnvFactory toy_factory() {
  return [](std::uint64_t seed) {
    return std::make_unique<testenv::TargetEnv>(2, 8, seed);
  };
}

TEST(Apex, CollectsTransitionsAndLearns) {
  ApexRunner runner(toy_ddpg(), toy_apex(2, 60), toy_factory(), 1);
  const ApexResult result = runner.train();
  EXPECT_EQ(result.transitions_collected, 2 * 60 * 8);
  EXPECT_GT(result.learner_steps, 0);
  EXPECT_GT(runner.replay().size(), 0u);
}

TEST(Apex, ImprovesOverTraining) {
  // At toy_ddpg's actor rate of 1e-3 this bandit's DDPG reward dips (from
  // about 0.87 to 0.1-0.5 between roughly 50 and 350 learner steps, in a
  // single-threaded run too) before it converges, so "no regression" held
  // only while the learner thread fitted fewer updates than that into the
  // actors' run. At DDPG's default actor rate of 1e-4 the reward rises at
  // every learner/actor pace tried (0.5 to 4 updates per episode), so the
  // check no longer depends on how fast the learner runs.
  DdpgConfig config = toy_ddpg();
  config.actor_lr = 1e-4;
  ApexRunner runner(config, toy_apex(2, 200), toy_factory(), 2);
  std::mutex mu;
  std::vector<double> rewards;
  const ApexResult result =
      runner.train([&](const EpisodeReport& report) {
        std::lock_guard<std::mutex> lock(mu);
        rewards.push_back(report.mean_reward);
      });
  ASSERT_GT(rewards.size(), 100u);
  double early = 0.0;
  double late = 0.0;
  const std::size_t k = 30;
  for (std::size_t i = 0; i < k; ++i) early += rewards[i] / k;
  for (std::size_t i = rewards.size() - k; i < rewards.size(); ++i)
    late += rewards[i] / k;
  // How far training progresses depends on how much CPU the learner thread
  // wins from the actors, which varies with machine load — require "no
  // regression plus real learner activity" rather than a fixed gain (the
  // deterministic convergence check lives in ddpg_test).
  EXPECT_GT(late, early - 0.02);
  EXPECT_GT(result.learner_steps, 0);
}

TEST(Apex, SingleActorWorks) {
  ApexRunner runner(toy_ddpg(), toy_apex(1, 30), toy_factory(), 3);
  const ApexResult result = runner.train();
  EXPECT_EQ(result.transitions_collected, 1 * 30 * 8);
}

TEST(Apex, EpisodeCallbackSeesEveryActor) {
  ApexRunner runner(toy_ddpg(), toy_apex(2, 10), toy_factory(), 4);
  std::mutex mu;
  std::set<int> actor_ids;
  int count = 0;
  (void)runner.train([&](const EpisodeReport& report) {
    std::lock_guard<std::mutex> lock(mu);
    actor_ids.insert(report.actor_id);
    ++count;
  });
  EXPECT_EQ(count, 20);
  EXPECT_EQ(actor_ids.size(), 2u);
}

TEST(Apex, TrainedPolicyUsableAfterRun) {
  ApexRunner runner(toy_ddpg(), toy_apex(2, 120), toy_factory(), 5);
  (void)runner.train();
  const auto action = runner.agent().act(std::vector<double>{0.2, -0.2});
  ASSERT_EQ(action.size(), 2u);
  for (const double a : action) {
    EXPECT_GE(a, -1.0);
    EXPECT_LE(a, 1.0);
  }
}

TEST(Apex, RejectsDimensionMismatch) {
  DdpgConfig wrong = toy_ddpg();
  wrong.state_dim = 5;  // env has 2
  ApexRunner runner(wrong, toy_apex(1, 2), toy_factory(), 6);
  EXPECT_DEATH((void)runner.train(), "dims disagree");
}

}  // namespace
}  // namespace greennfv::rl
