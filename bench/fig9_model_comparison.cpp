/// Reproduces Figure 9: "Performance comparison of different models based
/// on throughput and energy consumption."
///
/// Seven bars: Baseline, Heuristics (Algorithm 1), EE-Pstate, Q-Learning,
/// and GreenNFV trained under the MinE, MaxT, and EE SLAs. The comparison
/// executes through the campaign runner as a one-cell sweep — jobs=N
/// parallelizes across seeds, artifacts land under out/fig9/, and an
/// interrupted run resumes (resume=1) — while the default single-seed run
/// reproduces the pre-campaign wiring bit for bit (the per-run seed is
/// the scenario seed, and a one-node static deployment evaluates exactly
/// like core::evaluate_scheduler).
///
/// Expected shape (paper): baseline lowest (~2 Gbps at the highest energy);
/// Heuristics / EE-Pstate / Q-Learning roughly 2x baseline; GreenNFV
/// variants on top — MaxT ~4.4x baseline throughput at ~33% less energy,
/// MinE ~3x baseline at ~50-60% less energy, EE ~4x at mid energy.
///
/// Overrides: any scenario key (episodes=N, q_episodes=N, eval_windows=N,
/// seed=K, scenario=NAME...) plus models=a,b,c for a roster subset,
/// seeds=a,b,c / auto_seeds=N for a seed axis, jobs=N, resume=1.

#include <cstdio>

#include "bench/bench_util.hpp"
#include "campaign/runner.hpp"
#include "scenario/experiment.hpp"

using namespace greennfv;

int main(int argc, char** argv) {
  const Config config = Config::from_args(argc, argv);
  if (bench::handle_cli(
          config,
          bench::keys_plus(scenario::ScenarioSpec::known_keys(),
                           {"models", "seeds", "auto_seeds", "jobs",
                            "resume"}),
          scenario::ScenarioSpec::known_prefixes()))
    return 0;

  const scenario::ScenarioSpec spec = scenario::resolve(config);
  bench::banner("Figure 9", "model comparison (throughput & energy)",
                config, spec.name);
  bench::Perf perf("fig9_model_comparison");

  campaign::CampaignSpec camp;
  camp.name = "fig9";
  camp.base = spec;  // the resolved scenario IS the single cell
  camp.models = config.get_string("models", "");
  if (const auto seeds = config.get("seeds")) {
    // Config::from_string would split the comma list; hand the raw value
    // to the campaign parser instead.
    Config seed_config;
    seed_config.set("seeds", *seeds);
    camp.apply(seed_config);
  }
  camp.auto_seeds = config.get_int32("auto_seeds", 1);

  const campaign::ArtifactStore store(out_root(), camp.name);
  campaign::CampaignRunner runner(
      camp, bench::out_writable() ? &store : nullptr);
  const campaign::CampaignReport report =
      runner.run(config.get_int32("jobs", 1), config.get_bool("resume", false));

  // The familiar Fig. 9 table comes from the base-seed run; multi-seed
  // campaigns additionally get the mean +- CI summary.
  const scenario::EvalReport& eval = report.runs.front().report;
  std::fputs(eval.table().c_str(), stdout);
  if (report.runs.size() > 1) {
    std::printf("\nacross %zu seeds:\n", report.runs.size());
    std::fputs(report.summary.table().c_str(), stdout);
  }
  for (const auto& run : report.runs) {
    // Resumed runs cost no wall-clock; counting them would poison the
    // windows/sec trajectory.
    if (!run.from_cache)
      perf.add_windows(static_cast<double>(run.report.models.size()) *
                       spec.eval_windows);
  }

  std::printf(
      "\nshape check (paper): Heuristics/EE-Pstate/Q-Learning ~2x baseline"
      " throughput;\nGreenNFV(MaxT) ~4.4x at ~33%% less energy;"
      " GreenNFV(MinE) ~3x at ~50-60%% less energy;\nGreenNFV(EE) ~4x.\n");
  bench::dump_csv(eval.series, "fig9_model_comparison");
  return 0;
}
