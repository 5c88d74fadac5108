#include <gtest/gtest.h>

#include "core/ee_pstate.hpp"
#include "core/greennfv.hpp"
#include "core/heuristic.hpp"
#include "core/nf_controller.hpp"
#include "orchestrator/fleet.hpp"
#include "scenario/experiment.hpp"
#include "scenario/presets.hpp"

/// Golden equivalence: the paper-default scenario through FleetOrchestrator
/// must reproduce the exact per-model numbers the pre-redesign fig9 wiring
/// produced. The legacy wiring is replicated here verbatim (the old
/// bench/train_util.hpp standard_env/standard_trainer constants and the
/// old fig9 seed offsets); the budgets are shrunk identically on both
/// sides to keep the test fast. Same seeds -> identical EvalReport
/// metrics, bit for bit.

namespace greennfv::core {
namespace {

constexpr int kEpisodes = 3;
constexpr int kQEpisodes = 3;
constexpr int kCandidates = 1;
constexpr int kEvalWindows = 3;
constexpr int kStepsPerEpisode = 3;
constexpr std::uint64_t kSeed = 42;

/// The old bench::standard_env with the test's reduced step count.
EnvConfig legacy_env(Sla sla) {
  EnvConfig env;
  env.num_chains = 3;
  env.num_flows = 5;
  env.total_offered_gbps = 12.0;
  env.window_s = 10.0;
  env.sub_windows = 5;
  env.steps_per_episode = kStepsPerEpisode;
  env.sla = sla;
  return env;
}

/// The old bench::standard_trainer.
TrainerConfig legacy_trainer(Sla sla) {
  TrainerConfig trainer;
  trainer.env = legacy_env(sla);
  trainer.episodes = kEpisodes;
  trainer.seed = kSeed;
  trainer.prioritized_replay = true;
  trainer.noise_sigma = 0.45;
  trainer.noise_decay = 0.9985;
  return trainer;
}

/// The pre-redesign fig9 main, constants inlined.
std::vector<EvalResult> legacy_fig9() {
  const EnvConfig env_ee = legacy_env(Sla::energy_efficiency());
  const double budget = 2000.0;
  const double floor = 7.5;
  const double reference_j = env_ee.spec.p_max_w * env_ee.window_s;

  TrainerConfig mine_cfg = legacy_trainer(Sla::min_energy(floor,
                                                          reference_j));
  auto green_mine =
      train_best_scheduler(mine_cfg, "GreenNFV(MinE)", kCandidates);

  TrainerConfig maxt_cfg = legacy_trainer(Sla::max_throughput(budget));
  maxt_cfg.seed = kSeed + 1;
  auto green_maxt =
      train_best_scheduler(maxt_cfg, "GreenNFV(MaxT)", kCandidates);

  TrainerConfig ee_cfg = legacy_trainer(Sla::energy_efficiency());
  ee_cfg.seed = kSeed + 2;
  auto green_ee = train_best_scheduler(ee_cfg, "GreenNFV(EE)", kCandidates);

  auto qlearning =
      train_qlearning_scheduler(env_ee, kQEpisodes, kSeed + 3);

  BaselineScheduler baseline{env_ee.spec};
  HeuristicScheduler heuristic{env_ee.spec, HeuristicConfig{}};
  EePstateScheduler ee_pstate{env_ee.spec, EePstateConfig{}};

  struct Entry {
    Scheduler* scheduler;
    int warmup;
  };
  const Entry entries[] = {
      {&baseline, 2},    {&heuristic, 40},    {&ee_pstate, 6},
      {qlearning.get(), 2}, {green_mine.get(), 2}, {green_maxt.get(), 2},
      {green_ee.get(), 2},
  };

  std::vector<EvalResult> results;
  for (const Entry& entry : entries) {
    results.push_back(evaluate_scheduler(env_ee, *entry.scheduler,
                                         kEvalWindows, kSeed + 77,
                                         entry.warmup));
  }
  return results;
}

TEST(GoldenEquivalence, PaperDefaultReproducesLegacyFig9Numbers) {
  scenario::ScenarioSpec spec = scenario::preset("paper-default");
  spec.episodes = kEpisodes;
  spec.q_episodes = kQEpisodes;
  spec.candidates = kCandidates;
  spec.eval_windows = kEvalWindows;
  spec.steps_per_episode = kStepsPerEpisode;
  spec.seed = kSeed;

  orchestrator::FleetOrchestrator runner(spec);
  const scenario::EvalReport report =
      runner.run(scenario::default_roster(spec)).report;
  const std::vector<EvalResult> legacy = legacy_fig9();

  ASSERT_EQ(report.models.size(), legacy.size());
  const char* const names[] = {"Baseline",       "Heuristics",
                               "EE-Pstate",      "Q-Learning",
                               "GreenNFV(MinE)", "GreenNFV(MaxT)",
                               "GreenNFV(EE)"};
  for (std::size_t i = 0; i < legacy.size(); ++i) {
    const EvalResult& now = report.models[i].result;
    const EvalResult& then = legacy[i];
    SCOPED_TRACE(names[i]);
    EXPECT_EQ(now.scheduler, names[i]);
    EXPECT_DOUBLE_EQ(now.mean_gbps, then.mean_gbps);
    EXPECT_DOUBLE_EQ(now.mean_energy_j, then.mean_energy_j);
    EXPECT_DOUBLE_EQ(now.mean_power_w, then.mean_power_w);
    EXPECT_DOUBLE_EQ(now.mean_efficiency, then.mean_efficiency);
    EXPECT_DOUBLE_EQ(now.sla_satisfaction, then.sla_satisfaction);
    EXPECT_DOUBLE_EQ(now.drop_fraction, then.drop_fraction);
    EXPECT_EQ(now.windows, then.windows);
  }
}

}  // namespace
}  // namespace greennfv::core
