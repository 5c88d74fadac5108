/// Reproduces Figure 10: "Performance (in terms of throughput and energy
/// consumption) of the model with different SLA's over time."
///
///   (a) Maximum-Throughput SLA with a fixed energy constraint of 3.3 KJ;
///   (b) Minimum-Energy SLA with a throughput constraint of 7.5 Gbps.
///
/// Each trained policy runs the live NF-controller loop (through the
/// Scenario/Experiment API) for ~120 seconds of virtual time; per-window
/// throughput and energy are reported.
///
/// Expected shape (paper): early windows oscillate / overshoot while the
/// controller reacts to live traffic from its cold start, then both series
/// settle — (a) near the best throughput the energy cap allows, (b) just
/// above the 7.5 Gbps floor with energy walked down.

#include <cstdio>

#include "bench/bench_util.hpp"
#include "orchestrator/fleet.hpp"
#include "scenario/experiment.hpp"

using namespace greennfv;

namespace {

/// Fig 10 defaults on top of the chosen scenario: 5 s control intervals
/// over 120 s, a 300-episode training budget, the paper's 3.3 KJ cap.
Config with_fig10_defaults(Config config) {
  const auto defaulted = [&config](const char* key, const char* value) {
    if (!config.has(key)) config.set(key, value);
  };
  defaulted("window_s", "5");
  defaulted("eval_windows", "24");
  defaulted("episodes", "300");
  defaulted("energy_budget", "3300");
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  const Config cli = Config::from_args(argc, argv);
  if (bench::handle_cli(cli, scenario::ScenarioSpec::known_keys(),
                        scenario::ScenarioSpec::known_prefixes()))
    return 0;
  const Config config = with_fig10_defaults(cli);

  // One scenario per panel: identical topology/traffic, different SLA.
  Config maxt_config = config;
  maxt_config.set("sla", "maxt");
  const scenario::ScenarioSpec maxt_spec = scenario::resolve(maxt_config);
  Config mine_config = config;
  mine_config.set("sla", "mine");
  const scenario::ScenarioSpec mine_spec = scenario::resolve(mine_config);

  bench::banner("Figure 10", "fixed-SLA behaviour over time", cli,
                maxt_spec.name);
  bench::Perf perf("fig10_sla_timeseries");
  perf.add_windows(2.0 * maxt_spec.eval_windows);
  telemetry::Recorder recorder;

  std::printf("[train+run] (a) MaxTh, energy constraint %.1f KJ...\n",
              maxt_spec.energy_budget_j / 1000.0);
  orchestrator::FleetOrchestrator maxt_runner(maxt_spec);
  scenario::SchedulerFactory maxt_entry =
      scenario::filter_roster(scenario::default_roster(maxt_spec),
                              "greennfv-maxt")
          .front();
  // The figure plots the controller reacting from its cold start — the
  // early overshoot IS the data, so nothing is warmed up away.
  maxt_entry.warmup = 0;
  (void)maxt_runner.run_model(maxt_entry, &recorder);

  std::printf("[train+run] (b) MinE, throughput constraint %.1f Gbps...\n",
              mine_spec.throughput_floor_gbps);
  orchestrator::FleetOrchestrator mine_runner(mine_spec);
  scenario::SchedulerFactory mine_entry =
      scenario::filter_roster(scenario::default_roster(mine_spec),
                              "greennfv-mine")
          .front();
  mine_entry.warmup = 0;
  (void)mine_runner.run_model(mine_entry, &recorder);

  const std::string prefix_a = scenario::series_prefix("GreenNFV(MaxT)");
  const std::string prefix_b = scenario::series_prefix("GreenNFV(MinE)");
  const auto& t_a = recorder.series(prefix_a + "throughput_gbps");
  const auto& e_a = recorder.series(prefix_a + "energy_j");
  const auto& t_b = recorder.series(prefix_b + "throughput_gbps");
  const auto& e_b = recorder.series(prefix_b + "energy_j");
  std::vector<std::vector<std::string>> rows;
  for (std::size_t i = 0; i < t_a.size(); ++i) {
    rows.push_back({format_double(t_a.times()[i] + maxt_spec.window_s, 0),
                    format_double(t_a.values()[i], 2),
                    format_double(e_a.values()[i] / 1000.0, 2),
                    format_double(t_b.values()[i], 2),
                    format_double(e_b.values()[i] / 1000.0, 2)});
  }
  bench::print_table(
      {"t(s)", "(a) Gbps", "(a) E(KJ)", "(b) Gbps", "(b) E(KJ)"}, rows);
  std::printf(
      "\nshape check: (a) settles at the cap-permitted throughput with"
      " energy <= %.1f KJ;\n(b) holds >= %.1f Gbps while energy settles"
      " low.\n",
      maxt_spec.energy_budget_j / 1000.0, mine_spec.throughput_floor_gbps);
  bench::dump_csv(recorder, "fig10_sla_timeseries");
  return 0;
}
