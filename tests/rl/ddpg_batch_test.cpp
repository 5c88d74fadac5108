#include "rl/ddpg.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <vector>

#include "rl/per.hpp"
#include "telemetry/metrics.hpp"
#include "tests/support/ddpg_reference.hpp"

/// The batched GEMM training engine versus the per-sample oracle
/// (DdpgReference, in tests/support):
///   * numerical equivalence (per-step stats and post-step parameters
///     within 1e-9 over >100 steps, uniform and prioritized replay),
///   * same-seed bit-identical batched training,
///   * no GEMM for a gradient the step does not read,
///   * zero steady-state heap allocations in train_step and the act path
///     (counted by overriding global operator new in this binary).

// --- allocation counting -----------------------------------------------------

namespace {
std::atomic<long long> g_alloc_count{0};
std::atomic<bool> g_count_allocs{false};

void* counted_alloc(std::size_t n) {
  if (g_count_allocs.load(std::memory_order_relaxed))
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace greennfv::rl {
namespace {

DdpgConfig small_config() {
  DdpgConfig config;
  config.state_dim = 3;
  config.action_dim = 2;
  config.actor_hidden = {24, 18};
  config.critic_hidden = {26, 20};
  config.batch_size = 16;
  config.gamma = 0.95;
  return config;
}

Transition random_transition(Rng& rng, std::size_t s, std::size_t a) {
  Transition t;
  t.state.resize(s);
  t.action.resize(a);
  t.next_state.resize(s);
  for (double& v : t.state) v = rng.uniform(-1.0, 1.0);
  for (double& v : t.action) v = rng.uniform(-1.0, 1.0);
  for (double& v : t.next_state) v = rng.uniform(-1.0, 1.0);
  t.reward = rng.uniform(-1.0, 1.0);
  t.done = rng.bernoulli(0.1);
  return t;
}

void fill_replay(ReplayInterface& replay, std::uint64_t seed,
                 const DdpgConfig& config, int n) {
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    replay.add(random_transition(rng, config.state_dim, config.action_dim),
               0.0);
  }
}

void expect_params_near(const DdpgAgent& a, const DdpgReference& b,
                        double tol) {
  const std::vector<double> actor_a = a.actor().parameters();
  const std::vector<double> actor_b = b.actor().parameters();
  ASSERT_EQ(actor_a.size(), actor_b.size());
  for (std::size_t i = 0; i < actor_a.size(); ++i)
    ASSERT_NEAR(actor_a[i], actor_b[i], tol) << "actor param " << i;
  const std::vector<double> critic_a = a.critic().parameters();
  const std::vector<double> critic_b = b.critic().parameters();
  ASSERT_EQ(critic_a.size(), critic_b.size());
  for (std::size_t i = 0; i < critic_a.size(); ++i)
    ASSERT_NEAR(critic_a[i], critic_b[i], tol) << "critic param " << i;
}

// --- batched vs reference equivalence ---------------------------------------

TEST(DdpgBatchEquivalence, MatchesReferenceOverUniformReplay) {
  const DdpgConfig config = small_config();
  DdpgAgent batched(config, 42);
  DdpgReference reference(batched);
  UniformReplay replay_batched(512);
  UniformReplay replay_reference(512);
  fill_replay(replay_batched, 7, config, 200);
  fill_replay(replay_reference, 7, config, 200);
  Rng rng_batched(9);
  Rng rng_reference(9);

  for (int step = 0; step < 120; ++step) {
    const TrainStats& sb = batched.train_step(replay_batched, rng_batched);
    const TrainStats sr = reference.train_step(replay_reference, rng_reference);
    ASSERT_EQ(sb.indices, sr.indices) << "step " << step;
    ASSERT_NEAR(sb.critic_loss, sr.critic_loss, 1e-9) << "step " << step;
    ASSERT_NEAR(sb.actor_objective, sr.actor_objective, 1e-9)
        << "step " << step;
    ASSERT_EQ(sb.td_errors.size(), sr.td_errors.size());
    for (std::size_t i = 0; i < sb.td_errors.size(); ++i)
      ASSERT_NEAR(sb.td_errors[i], sr.td_errors[i], 1e-9)
          << "step " << step << " td " << i;
  }
  expect_params_near(batched, reference, 1e-9);

  // The resulting policies must agree on fresh states too.
  Rng probe_rng(11);
  for (int i = 0; i < 20; ++i) {
    std::vector<double> state(config.state_dim);
    for (double& v : state) v = probe_rng.uniform(-1.0, 1.0);
    const std::vector<double> act_b = batched.act(state);
    const std::vector<double> act_r = reference.actor().forward(state);
    for (std::size_t d = 0; d < act_b.size(); ++d)
      ASSERT_NEAR(act_b[d], act_r[d], 1e-9);
  }
}

TEST(DdpgBatchEquivalence, MatchesReferenceOverPrioritizedReplay) {
  const DdpgConfig config = small_config();
  DdpgAgent batched(config, 4242);
  DdpgReference reference(batched);
  PerConfig per;
  per.capacity = 512;
  PrioritizedReplay replay_batched(per);
  PrioritizedReplay replay_reference(per);
  fill_replay(replay_batched, 17, config, 200);
  fill_replay(replay_reference, 17, config, 200);
  Rng rng_batched(19);
  Rng rng_reference(19);

  for (int step = 0; step < 110; ++step) {
    const TrainStats& sb = batched.train_step(replay_batched, rng_batched);
    replay_batched.update_priorities(sb.indices, sb.td_errors);
    const TrainStats sr = reference.train_step(replay_reference, rng_reference);
    replay_reference.update_priorities(sr.indices, sr.td_errors);
    ASSERT_EQ(sb.indices, sr.indices) << "step " << step;
    for (std::size_t i = 0; i < sb.td_errors.size(); ++i)
      ASSERT_NEAR(sb.td_errors[i], sr.td_errors[i], 1e-9)
          << "step " << step << " td " << i;
  }
  expect_params_near(batched, reference, 1e-9);
}

// --- same-seed determinism ---------------------------------------------------

TEST(DdpgBatchDeterminism, SameSeedBitIdenticalTraining) {
  const DdpgConfig config = small_config();
  DdpgAgent a(config, 5);
  DdpgAgent b(config, 5);
  UniformReplay replay_a(512);
  UniformReplay replay_b(512);
  fill_replay(replay_a, 23, config, 150);
  fill_replay(replay_b, 23, config, 150);
  Rng rng_a(29);
  Rng rng_b(29);

  for (int step = 0; step < 100; ++step) {
    const TrainStats& sa = a.train_step(replay_a, rng_a);
    const TrainStats& sb = b.train_step(replay_b, rng_b);
    ASSERT_EQ(sa.indices, sb.indices);
    ASSERT_EQ(sa.critic_loss, sb.critic_loss) << "step " << step;
    ASSERT_EQ(sa.actor_objective, sb.actor_objective) << "step " << step;
    ASSERT_EQ(sa.td_errors, sb.td_errors) << "step " << step;
  }
  // Bit-identical parameters (EXPECT_EQ, not NEAR).
  EXPECT_EQ(a.actor().parameters(), b.actor().parameters());
  EXPECT_EQ(a.critic().parameters(), b.critic().parameters());
}

// --- only the gradients a step reads ---------------------------------------

TEST(DdpgBatchWork, TrainStepComputesNoUnreadGradient) {
  // Three layers per network: three GEMMs per forward pass (four passes),
  // five per parameter backward (every layer's dW, dL/dX of the top two
  // only; critic and actor) and three for the critic's ∂Q/∂a (dL/dX only,
  // no dW) — 28. Discarded critic gradients and layer-0 dL/dX made 33.
  const DdpgConfig config = small_config();
  DdpgAgent agent(config, 3);
  UniformReplay replay(512);
  fill_replay(replay, 51, config, 200);
  Rng rng(53);
  (void)agent.train_step(replay, rng);

  telemetry::metrics::set_enabled(true);
  telemetry::metrics::reset();
  (void)agent.train_step(replay, rng);
  const double calls = telemetry::metrics::snapshot().value("rl.gemm_calls");
  telemetry::metrics::set_enabled(false);
  EXPECT_EQ(calls, 28.0);
}

// --- zero steady-state allocations ------------------------------------------

TEST(DdpgBatchAlloc, TrainStepIsAllocationFreeAtSteadyState) {
  const DdpgConfig config = small_config();
  DdpgAgent agent(config, 3);
  UniformReplay replay(512);
  fill_replay(replay, 31, config, 200);
  Rng rng(37);

  for (int i = 0; i < 3; ++i) (void)agent.train_step(replay, rng);  // warm up

  g_alloc_count.store(0);
  g_count_allocs.store(true);
  for (int i = 0; i < 10; ++i) (void)agent.train_step(replay, rng);
  g_count_allocs.store(false);
  EXPECT_EQ(g_alloc_count.load(), 0)
      << "train_step allocated at steady state";
}

TEST(DdpgBatchAlloc, PrioritizedSamplingIsAllocationFreeAtSteadyState) {
  const DdpgConfig config = small_config();
  DdpgAgent agent(config, 3);
  PerConfig per;
  per.capacity = 512;
  PrioritizedReplay replay(per);
  fill_replay(replay, 41, config, 200);
  Rng rng(43);

  for (int i = 0; i < 3; ++i) {
    const TrainStats& stats = agent.train_step(replay, rng);
    replay.update_priorities(stats.indices, stats.td_errors);
  }

  g_alloc_count.store(0);
  g_count_allocs.store(true);
  for (int i = 0; i < 10; ++i) {
    const TrainStats& stats = agent.train_step(replay, rng);
    replay.update_priorities(stats.indices, stats.td_errors);
  }
  g_count_allocs.store(false);
  EXPECT_EQ(g_alloc_count.load(), 0)
      << "prioritized train_step allocated at steady state";
}

TEST(DdpgBatchAlloc, ActPathIsAllocationFreeAfterWarmup) {
  const DdpgConfig config = small_config();
  const DdpgAgent agent(config, 3);
  DdpgAgent::ActScratch scratch;
  GaussianNoise noise(config.action_dim, 0.2);
  Rng rng(47);
  std::vector<double> state(config.state_dim, 0.25);
  std::vector<double> action(config.action_dim);

  agent.act_into(state, scratch, action);  // warm up the workspace
  agent.act_noisy_into(state, noise, rng, scratch, action);

  g_alloc_count.store(0);
  g_count_allocs.store(true);
  for (int i = 0; i < 100; ++i) {
    agent.act_into(state, scratch, action);
    agent.act_noisy_into(state, noise, rng, scratch, action);
  }
  g_count_allocs.store(false);
  EXPECT_EQ(g_alloc_count.load(), 0) << "act path allocated after warm-up";
}

}  // namespace
}  // namespace greennfv::rl
