/// Train a GreenNFV policy for a chosen SLA and evaluate it against the
/// untuned baseline — the paper's core workflow in one file, on the
/// Scenario/Experiment API.
///
///   build/examples/sla_training [sla=maxt|mine|ee] [episodes=N] [seed=K]
///                               [scenario=NAME] [apex=1 actors=N]
///
/// With apex=1 the distributed Ape-X trainer (actor threads + central
/// prioritized replay + learner thread) is used instead of the synchronous
/// loop.

#include <cstdio>
#include <exception>

#include "common/log.hpp"
#include "core/greennfv.hpp"
#include "orchestrator/fleet.hpp"
#include "scenario/experiment.hpp"
#include "scenario/presets.hpp"

using namespace greennfv;
using namespace greennfv::core;

namespace {

int run(const Config& cli) {
  if (scenario::print_help_if_requested(cli, {"apex", "actors"})) return 0;
  {
    std::vector<std::string> keys = scenario::ScenarioSpec::known_keys();
    keys.insert(keys.end(), {"apex", "actors", "help"});
    cli.check_known(keys, scenario::ScenarioSpec::known_prefixes());
  }
  Config config = cli;
  if (!config.has("episodes")) config.set("episodes", "300");
  const scenario::ScenarioSpec spec = scenario::resolve(config);

  std::printf("training GreenNFV under the %s SLA on scenario %s, %d"
              " episodes...\n",
              spec.sla().name().c_str(), spec.name.c_str(), spec.episodes);

  TrainerConfig trainer_config = spec.trainer_config(spec.sla());
  trainer_config.use_apex = config.get_bool("apex", false);
  trainer_config.apex.num_actors = config.get_int32("actors", 2);

  GreenNfvTrainer trainer(trainer_config);
  const TrainResult result = trainer.train();
  std::printf("trained: tail %.2f Gbps / %.0f J / efficiency %.2f "
              "(%lld learner steps)\n\n",
              result.tail_gbps, result.tail_energy_j,
              result.tail_efficiency,
              static_cast<long long>(result.train_steps));

  // Head-to-head against the baseline on fresh traffic, both models
  // through the identical runner.
  const std::string label = "GreenNFV(" + spec.sla().name() + ")";
  std::vector<scenario::SchedulerFactory> roster =
      scenario::filter_roster(scenario::default_roster(spec), "baseline");
  roster.push_back(
      {label, 2,
       [&trainer, &label](const core::EnvConfig& env, std::uint64_t) {
         // One policy was trained for the whole-deployment shape; a
         // per-node env with a different chain count cannot reuse it.
         if (env.num_chains != trainer.config().env.num_chains) {
           throw std::invalid_argument(
               "sla_training trains one policy for the full deployment;"
               " multi-node scenarios need example_run_scenario, whose"
               " roster trains per node");
         }
         return trainer.make_scheduler(label);
       }});
  orchestrator::FleetOrchestrator runner(spec);
  const scenario::EvalReport report = runner.run(roster).report;
  std::fputs(report.table().c_str(), stdout);

  const EvalResult& base = report.models[0].result;
  const EvalResult& learned = report.models[1].result;
  std::printf("\nimprovement: %.2fx throughput, %.0f%% of baseline energy\n",
              learned.mean_gbps / base.mean_gbps,
              learned.mean_energy_j / base.mean_energy_j * 100.0);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(Config::from_args(argc, argv));
  } catch (const std::exception& e) {
    GNFV_LOG_ERROR("sla_training") << e.what();
    return 2;
  }
}
