/// Ablation studies over GreenNFV's design choices (the knobs DESIGN.md
/// calls out):
///
///   A. prioritized vs uniform experience replay (Ape-X's core claim)
///   B. gated (paper) vs shaped SLA rewards
///   C. pure polling vs hybrid callback+polling NF scheduling
///   D. SDN flow steering on/off under skewed traffic (§6 future work)
///
/// A and B are knob-subset sweeps and execute through the campaign runner
/// (one axis each, jobs=N parallelizes the grid, artifacts under
/// out/ablation-*/); C and D toggle engine internals no scenario key
/// reaches, so they keep their bespoke loops. Every section builds from
/// the same resolved ScenarioSpec (paper-default unless scenario=
/// overrides). Overrides: any scenario key (episodes=N seed=K...), jobs=N.

#include <cstdio>

#include "bench/bench_util.hpp"
#include "campaign/runner.hpp"
#include "core/heuristic.hpp"
#include "core/sdn_controller.hpp"
#include "scenario/experiment.hpp"

using namespace greennfv;
using namespace greennfv::core;

namespace {

/// Runs a one-axis campaign over the resolved scenario and returns the
/// summary cells in matrix order.
campaign::CampaignSummary sweep(const scenario::ScenarioSpec& spec,
                                const std::string& campaign_name,
                                const std::string& axis_key,
                                const std::vector<std::string>& values,
                                const std::string& models, int jobs) {
  campaign::CampaignSpec camp;
  camp.name = campaign_name;
  camp.base = spec;
  camp.models = models;
  camp.axes = {{axis_key, values}};
  const campaign::ArtifactStore store(out_root(), camp.name);
  campaign::CampaignRunner runner(
      camp, bench::out_writable() ? &store : nullptr);
  return runner.run(jobs, /*resume=*/false).summary;
}

void ablate_replay(const scenario::ScenarioSpec& spec, int jobs,
                   bench::Perf& perf) {
  std::printf("\n[A] prioritized vs uniform replay (EnergyEfficiency"
              " SLA)\n");
  scenario::ScenarioSpec ee_spec = spec;
  ee_spec.sla_kind = SlaKind::kEnergyEfficiency;
  const campaign::CampaignSummary summary =
      sweep(ee_spec, "ablation-replay", "prioritized", {"1", "0"},
            "greennfv-ee", jobs);
  std::vector<std::vector<std::string>> rows;
  for (const auto& cell : summary.cells) {
    rows.push_back({cell.assignments[0].second == "1" ? "prioritized"
                                                      : "uniform",
                    format_double(cell.gbps.mean, 2),
                    format_double(cell.energy_j.mean, 0),
                    format_double(cell.efficiency.mean, 2)});
    perf.add_windows(spec.eval_windows);
  }
  bench::print_table({"replay", "Gbps", "Energy(J)", "eff"}, rows);
}

void ablate_reward_shape(const scenario::ScenarioSpec& spec, int jobs,
                         bench::Perf& perf) {
  std::printf("\n[B] gated (paper) vs shaped rewards (MaxThroughput"
              " SLA)\n");
  scenario::ScenarioSpec maxt_spec = spec;
  maxt_spec.sla_kind = SlaKind::kMaxThroughput;
  const campaign::CampaignSummary summary =
      sweep(maxt_spec, "ablation-reward", "shaped_reward", {"0", "1"},
            "greennfv-maxt", jobs);
  std::vector<std::vector<std::string>> rows;
  for (const auto& cell : summary.cells) {
    rows.push_back({cell.assignments[0].second == "1" ? "shaped"
                                                      : "gated (paper)",
                    format_double(cell.gbps.mean, 2),
                    format_double(cell.energy_j.mean, 0),
                    format_double(cell.sla.mean * 100.0, 0) + "%"});
    perf.add_windows(spec.eval_windows);
  }
  bench::print_table({"reward", "Gbps", "Energy(J)", "SLA met"}, rows);
}

void ablate_sched_mode(const scenario::ScenarioSpec& spec,
                       bench::Perf& perf) {
  std::printf("\n[C] pure polling vs hybrid callback+polling\n");
  // Identical knobs and traffic; only the scheduling discipline differs.
  const EnvConfig env_config = spec.env_config();
  std::vector<std::vector<std::string>> rows;
  for (const nfvsim::SchedMode mode :
       {nfvsim::SchedMode::kPoll, nfvsim::SchedMode::kHybrid}) {
    NfvEnvironment env(env_config, spec.seed);
    env.controller().set_sched_mode(mode);
    env.controller().set_use_cat(true);
    std::vector<nfvsim::ChainKnobs> knobs(
        static_cast<std::size_t>(env_config.num_chains));
    for (auto& k : knobs) {
      k.cores = 2.0;
      k.freq_ghz = 1.8;
      k.llc_fraction = 0.33;
      k.dma_bytes = 16ull << 20;
      k.batch = 128;
    }
    double gbps = 0.0;
    double energy = 0.0;
    for (int w = 0; w < 6; ++w) {
      const auto outcome = env.run_window(knobs);
      gbps += outcome.throughput_gbps / 6.0;
      energy += outcome.energy_j / 6.0;
    }
    perf.add_windows(6);
    rows.push_back({nfvsim::to_string(mode), format_double(gbps, 2),
                    format_double(energy, 0)});
  }
  bench::print_table({"mode", "Gbps", "Energy(J)"}, rows);
  std::printf("polling buys nothing at these loads but burns the idle"
              " duty — the paper's\nhybrid callback design in one table.\n");
}

void ablate_sdn(const scenario::ScenarioSpec& spec, bench::Perf& perf) {
  std::printf("\n[D] SDN flow steering under skewed load (§6 extension)\n");
  const EnvConfig env_config = spec.env_config();
  std::vector<std::vector<std::string>> rows;
  for (const bool steering : {false, true}) {
    NfvEnvironment env(env_config, spec.seed);
    HeuristicScheduler heuristic{env_config.spec, HeuristicConfig{}};
    NfController controller(env, heuristic);
    SdnController sdn;
    double gbps = 0.0;
    std::vector<ChainObservation> obs(
        static_cast<std::size_t>(env_config.num_chains));
    // Impose the skew: pile every flow onto chain 0.
    traffic::TrafficGenerator& gen = env.generator();
    for (std::size_t f = 0; f < gen.flows().size(); ++f)
      gen.steer_flow(f, 0);
    const int windows = 12;
    for (int w = 0; w < windows; ++w) {
      const auto knobs = heuristic.decide(obs, env.last_knobs());
      const auto outcome = env.run_window(knobs);
      obs = outcome.observations;
      if (steering) (void)sdn.rebalance(obs, gen);
      gbps += outcome.throughput_gbps / windows;
    }
    perf.add_windows(windows);
    rows.push_back({steering ? "SDN steering on" : "steering off",
                    format_double(gbps, 2),
                    steering ? format("%d moves", sdn.rebalances_performed())
                             : "-"});
  }
  bench::print_table({"config", "Gbps", "rebalances"}, rows);
}

}  // namespace

int main(int argc, char** argv) {
  const Config cli = Config::from_args(argc, argv);
  if (bench::handle_cli(cli,
                        bench::keys_plus(
                            scenario::ScenarioSpec::known_keys(), {"jobs"}),
                        scenario::ScenarioSpec::known_prefixes()))
    return 0;
  Config config = cli;
  if (!config.has("episodes")) config.set("episodes", "300");
  const scenario::ScenarioSpec spec = scenario::resolve(config);
  const int jobs = config.get_int32("jobs", 1);
  bench::banner("Ablations", "design-choice studies", cli, spec.name);
  bench::Perf perf("ablation_study");
  ablate_replay(spec, jobs, perf);
  ablate_reward_shape(spec, jobs, perf);
  ablate_sched_mode(spec, perf);
  ablate_sdn(spec, perf);
  return 0;
}
