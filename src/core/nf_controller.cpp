#include "core/nf_controller.hpp"

#include "common/assert.hpp"

namespace greennfv::core {

NfController::NfController(NfvEnvironment& env, Scheduler& scheduler)
    : env_(env), scheduler_(scheduler) {
  env_.controller().set_use_cat(scheduler_.wants_cat());
  env_.controller().set_sched_mode(scheduler_.sched_mode());
}

EvalResult NfController::run(int windows, telemetry::Recorder* recorder,
                             const std::string& prefix) {
  GNFV_REQUIRE(windows > 0, "NfController::run: windows must be positive");
  EvalResult result;
  result.scheduler = scheduler_.name();
  result.windows = windows;

  // Bootstrap observations: run one window at the scheduler's answer to
  // "no information" (collect-state happens before the first allocation in
  // Algorithm 3, here folded into a settling window). Later windows decide
  // on the environment's own last observations.
  const std::vector<ChainObservation> none(
      env_.last_outcome().observations.empty()
          ? env_.controller().num_chains()
          : 0);

  double t = 0.0;
  for (int w = 0; w < windows; ++w) {
    const auto& seen = env_.last_outcome().observations;
    const auto knobs =
        scheduler_.decide(seen.empty() ? none : seen, env_.last_knobs());
    const auto& outcome = env_.run_window(knobs);

    result.mean_gbps += outcome.throughput_gbps;
    result.mean_energy_j += outcome.energy_j;
    result.mean_power_w += outcome.energy_j / env_.config().window_s;
    result.mean_efficiency += outcome.efficiency;
    result.sla_satisfaction += outcome.sla_satisfied ? 1.0 : 0.0;
    result.drop_fraction += outcome.drop_fraction;

    if (recorder != nullptr) {
      recorder->record(prefix + "throughput_gbps", t,
                       outcome.throughput_gbps);
      recorder->record(prefix + "energy_j", t, outcome.energy_j);
      recorder->record(prefix + "power_w", t,
                       outcome.energy_j / env_.config().window_s);
      recorder->record(prefix + "efficiency", t, outcome.efficiency);
      recorder->record(prefix + "drop_fraction", t, outcome.drop_fraction);
      recorder->record(prefix + "offered_pps", t, outcome.offered_pps);
    }
    t += env_.config().window_s;
  }

  const auto n = static_cast<double>(windows);
  result.mean_gbps /= n;
  result.mean_energy_j /= n;
  result.mean_power_w /= n;
  result.mean_efficiency /= n;
  result.sla_satisfaction /= n;
  result.drop_fraction /= n;
  return result;
}

EvalResult evaluate_scheduler(const EnvConfig& config, Scheduler& scheduler,
                              int windows, std::uint64_t seed, int warmup,
                              telemetry::Recorder* recorder,
                              const std::string& prefix) {
  NfvEnvironment env(config, seed);
  scheduler.reset();
  NfController controller(env, scheduler);
  if (warmup > 0) (void)controller.run(warmup);
  // Measurement defines t=0 for the macroscopic rate envelope: models with
  // different warmups must still meet a surge/swing at the same recorded
  // time, or the comparison measures different workloads.
  env.align_rate_profile();
  return controller.run(windows, recorder, prefix);
}

}  // namespace greennfv::core
