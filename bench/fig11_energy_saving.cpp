/// Reproduces Figure 11: "Total energy consumption (including the energy
/// cost of training RL algorithm) improvement compared to other models."
///
/// The RL model costs energy to train, but trains once and is then reused;
/// the saving is amortized. Following Eq. 9's intent we report
///
///     Es(t) = (E_baseline(t) - E_greennfv(t) - E_train) / E_baseline(t)
///
/// over deployment time t = 1..6 hours, with E_train measured as the
/// actual energy the simulator burned during the training episodes. (The
/// paper's Eq. 9 as printed normalizes by E_nf + E_t; we normalize by the
/// baseline so the value reads directly as "% saved vs baseline", matching
/// the figure's axis. EXPERIMENTS.md records this deviation.)
///
/// The steady-state power measurement executes through the campaign
/// runner (a one-cell matrix whose roster injects the metered pre-trained
/// policy), so artifacts land under out/fig11/ like every other sweep.
///
/// Expected shape (paper): ~20-25% saving after the first hour, growing
/// toward ~60% as the one-time training cost amortizes.
///
/// Overrides: any scenario key, plus fleet=N (hosting nodes the one-time
/// training cost amortizes over; the paper's testbed hosts chains on 3)
/// and jobs=N.

#include <cstdio>

#include "bench/bench_util.hpp"
#include "campaign/runner.hpp"
#include "scenario/experiment.hpp"

using namespace greennfv;
using namespace greennfv::core;

int main(int argc, char** argv) {
  const Config cli = Config::from_args(argc, argv);
  if (bench::handle_cli(
          cli,
          bench::keys_plus(scenario::ScenarioSpec::known_keys(),
                           {"fleet", "jobs"}),
          scenario::ScenarioSpec::known_prefixes()))
    return 0;
  Config config = cli;
  if (!config.has("sla")) config.set("sla", "mine");
  if (!config.has("eval_windows")) config.set("eval_windows", "8");
  const scenario::ScenarioSpec spec = scenario::resolve(config);
  bench::banner("Figure 11", "energy saving incl. training cost", cli,
                spec.name);
  bench::Perf perf("fig11_energy_saving");

  // Train while accounting the energy every training episode burned.
  telemetry::Recorder curves;
  GreenNfvTrainer trainer(spec.trainer_config(spec.sla()));
  (void)trainer.train(&curves);
  const auto& train_energy = curves.series("energy_j");
  double e_train_j = 0.0;
  for (const double e : train_energy.values())
    e_train_j += e * spec.steps_per_episode;
  perf.add_windows(static_cast<double>(spec.episodes) *
                   spec.steps_per_episode);

  // Steady-state powers of the trained policy and the baseline, measured
  // by the campaign runner on the same traffic: a one-cell matrix whose
  // roster reuses the ONE policy metered above.
  campaign::CampaignSpec camp;
  camp.name = "fig11";
  camp.base = spec;
  const campaign::ArtifactStore store(out_root(), camp.name);
  campaign::CampaignRunner crunner(
      camp, bench::out_writable() ? &store : nullptr);
  crunner.set_roster_provider([&trainer](
                                  const scenario::ScenarioSpec& cell) {
    std::vector<scenario::SchedulerFactory> roster = scenario::filter_roster(
        scenario::default_roster(cell), "baseline");
    roster.push_back(
        {"GreenNFV(MinE)", 2,
         [&trainer](const core::EnvConfig& env, std::uint64_t) {
           // The amortization argument reuses the single trained policy;
           // it only fits the trained shape.
           if (env.num_chains != trainer.config().env.num_chains) {
             throw std::invalid_argument(
                 "fig11 amortizes a single trained policy; run it on"
                 " single-node scenarios (fleet=N scales the deployment)");
           }
           return trainer.make_scheduler("GreenNFV(MinE)");
         }});
    return roster;
  });
  const campaign::CampaignReport creport =
      crunner.run(config.get_int32("jobs", 1), /*resume=*/false);
  const scenario::EvalReport& report = creport.runs.front().report;
  const EvalResult& base = report.models[0].result;
  const EvalResult& green = report.models[1].result;
  perf.add_windows(2.0 * spec.eval_windows);

  // The model "needs to be trained only once before deployment and is run
  // many times": training happens once, the policy then drives every
  // hosting node (the paper's testbed runs chains on three nodes).
  const int fleet = config.get_int32("fleet", 3);
  std::printf("baseline power %.1f W/node, GreenNFV(MinE) power %.1f "
              "W/node, one-time training cost %.2f MJ, fleet of %d nodes\n\n",
              base.mean_power_w, green.mean_power_w, e_train_j / 1e6,
              fleet);

  std::vector<std::vector<std::string>> rows;
  telemetry::Recorder recorder;
  for (int hour = 1; hour <= 6; ++hour) {
    const double t_s = hour * 3600.0;
    const double e_baseline = fleet * base.mean_power_w * t_s;
    const double e_green = fleet * green.mean_power_w * t_s;
    const double saving =
        (e_baseline - e_green - e_train_j) / e_baseline * 100.0;
    rows.push_back({format("%d", hour), format_double(saving, 1) + "%"});
    recorder.record("saving_pct", hour, saving);
  }
  bench::print_table({"time(h)", "energy saving"}, rows);
  std::printf(
      "\nshape check: saving starts low (training cost dominates) and"
      " climbs toward\nthe steady-state power gap (paper: 23%% at first,"
      " 62%% over time).\n");
  bench::dump_csv(recorder, "fig11_energy_saving");
  return 0;
}
