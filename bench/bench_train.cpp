/// RL training microbenchmark: DDPG train_step throughput (batched GEMM
/// engine vs the per-sample oracle, DdpgReference in tests/support) and
/// actor inference rate at the geometry the scheduler roster trains — 3
/// chains (state 12 / action 15), two 64-unit hidden layers, batch 64.
/// Writes out/BENCH_train.json with train_steps/sec, reference_steps/sec,
/// speedup, and actions/sec so the perf trajectory has an RL data point
/// PR over PR.
///
/// Keys:
///   chains=3 hidden=64 batch=64     network geometry (chains=6 hidden=300
///                                   is the paper-scale width; pair it
///                                   with steps=400 ref_steps=60)
///   steps=2000 ref_steps=400        timed train steps per path
///   actions=20000                   timed actor inference steps
///   smoke=0                         1 = CI-sized run (fewer steps)
///   baseline=<path>                 compare against a checked-in
///                                   BENCH_train.json recorded at the same
///                                   geometry; warns (exit 0) on
///                                   >warn_pct% train-throughput regression
///   warn_pct=30
///
/// The flight recorder's counter registry is enabled for the batched
/// loop, so the Perf JSON splits train_step time into its four passes
/// (phase_targets_s / phase_critic_s / phase_actor_s / phase_soft_s)
/// and carries gemm_calls / replay_samples for the timed run.

#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/string_util.hpp"
#include "rl/ddpg.hpp"
#include "rl/replay.hpp"
#include "telemetry/metrics.hpp"
#include "tests/support/ddpg_reference.hpp"

using namespace greennfv;
using namespace greennfv::rl;

namespace {

Transition random_transition(Rng& rng, std::size_t s, std::size_t a) {
  Transition t;
  t.state.resize(s);
  t.action.resize(a);
  t.next_state.resize(s);
  for (double& v : t.state) v = rng.uniform(-1.0, 1.0);
  for (double& v : t.action) v = rng.uniform(-1.0, 1.0);
  for (double& v : t.next_state) v = rng.uniform(-1.0, 1.0);
  t.reward = rng.uniform(-1.0, 1.0);
  t.done = rng.bernoulli(0.05);
  return t;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Loads `key` from a BENCH json, or 0 when absent/unreadable.
double baseline_metric(const std::string& path, const std::string& key) {
  try {
    const Json json = Json::parse(read_file(path));
    if (!json.has(key)) return 0.0;
    return json.at(key).as_double();
  } catch (const std::exception& e) {
    std::printf("[baseline] unreadable (%s)\n", e.what());
    return 0.0;
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Config config = Config::from_args(argc, argv);
  if (bench::handle_cli(config, {"chains", "hidden", "batch", "steps",
                                 "ref_steps", "actions", "smoke", "baseline",
                                 "warn_pct", "seed"})) {
    return 0;
  }
  bench::banner("bench_train", "DDPG batched training engine throughput",
                config);
  bench::Perf perf("train");

  const bool smoke = config.get_bool("smoke", false);
  const int chains = config.get_int32("chains", 3);
  const int hidden = config.get_int32("hidden", 64);
  const int batch = config.get_int32("batch", 64);
  const int steps = config.get_int32("steps", smoke ? 300 : 2000);
  const int ref_steps = config.get_int32("ref_steps", smoke ? 60 : 400);
  const int action_steps = config.get_int32("actions", smoke ? 4000 : 20000);
  const auto seed = static_cast<std::uint64_t>(config.get_int("seed", 42));

  DdpgConfig ddpg;
  // The paper's state/action geometry: 4 signals and 5 knobs per chain.
  ddpg.state_dim = static_cast<std::size_t>(4 * chains);
  ddpg.action_dim = static_cast<std::size_t>(5 * chains);
  ddpg.actor_hidden = {static_cast<std::size_t>(hidden),
                       static_cast<std::size_t>(hidden)};
  ddpg.critic_hidden = ddpg.actor_hidden;
  ddpg.batch_size = static_cast<std::size_t>(batch);

  UniformReplay replay(8192);
  Rng fill_rng(seed ^ 0xF111ull);
  for (int i = 0; i < 4 * batch + 256; ++i) {
    replay.add(random_transition(fill_rng, ddpg.state_dim, ddpg.action_dim),
               0.0);
  }

  // --- per-sample oracle (the pre-batching implementation) ------------------
  DdpgAgent agent(ddpg, seed);
  DdpgReference reference(agent);
  Rng ref_rng(seed ^ 0x5A5Aull);
  for (int i = 0; i < 2; ++i)  // warm up caches
    (void)reference.train_step(replay, ref_rng);
  const auto ref_start = std::chrono::steady_clock::now();
  for (int i = 0; i < ref_steps; ++i)
    (void)reference.train_step(replay, ref_rng);
  const double ref_s = seconds_since(ref_start);
  const double ref_rate = ref_steps / ref_s;

  // --- batched engine -------------------------------------------------------
  Rng train_rng(seed ^ 0x5A5Aull);
  for (int i = 0; i < 2; ++i) (void)agent.train_step(replay, train_rng);
  // Counters reset after warm-up so the phase breakdown covers exactly
  // the timed batched loop below (the reference path above is excluded).
  telemetry::metrics::set_enabled(true);
  telemetry::metrics::reset();
  const auto train_start = std::chrono::steady_clock::now();
  for (int i = 0; i < steps; ++i) (void)agent.train_step(replay, train_rng);
  const double train_s = seconds_since(train_start);
  const telemetry::metrics::Snapshot snap = telemetry::metrics::snapshot();
  const double train_rate = steps / train_s;
  const double speedup = train_rate / ref_rate;

  // --- actor inference (the per-env-step rollout path) ----------------------
  DdpgAgent::ActScratch scratch;
  std::vector<double> state(ddpg.state_dim, 0.1);
  std::vector<double> action(ddpg.action_dim);
  agent.act_into(state, scratch, action);  // warm up
  const auto act_start = std::chrono::steady_clock::now();
  double sink = 0.0;
  for (int i = 0; i < action_steps; ++i) {
    state[0] = static_cast<double>(i % 7) * 0.1 - 0.3;
    agent.act_into(state, scratch, action);
    sink += action[0];
  }
  const double act_s = seconds_since(act_start);
  const double act_rate = action_steps / act_s;

  std::printf("\nnetwork: state %zu, action %zu, hidden %dx%d, batch %d\n",
              ddpg.state_dim, ddpg.action_dim, hidden, hidden, batch);
  std::printf("reference (per-sample): %5d steps in %6.2f s  = %8.1f "
              "steps/s\n",
              ref_steps, ref_s, ref_rate);
  std::printf("batched GEMM engine:    %5d steps in %6.2f s  = %8.1f "
              "steps/s  (%.2fx)\n",
              steps, train_s, train_rate, speedup);
  const double step_ns = snap.value("rl.phase.train_step_ns");
  if (step_ns > 0.0) {
    std::printf("  phase split: targets %.0f%%, critic %.0f%%, actor "
                "%.0f%%, soft-update %.0f%%  (%.0f GEMMs, %.0f replay "
                "samples)\n",
                100.0 * snap.value("rl.phase.targets_ns") / step_ns,
                100.0 * snap.value("rl.phase.critic_ns") / step_ns,
                100.0 * snap.value("rl.phase.actor_ns") / step_ns,
                100.0 * snap.value("rl.phase.soft_update_ns") / step_ns,
                snap.value("rl.gemm_calls"),
                snap.value("rl.replay_samples"));
  }
  std::printf("actor inference:        %5d acts  in %6.2f s  = %8.0f "
              "actions/s  (checksum %.3f)\n",
              action_steps, act_s, act_rate, sink);

  perf.add_windows(static_cast<double>(steps + ref_steps));
  perf.add_metric("train_steps_per_sec", train_rate);
  perf.add_metric("reference_steps_per_sec", ref_rate);
  perf.add_metric("speedup_vs_reference", speedup);
  perf.add_metric("actions_per_sec", act_rate);
  perf.add_metric("batch", batch);
  perf.add_metric("hidden", hidden);
  perf.add_metric("state_dim", static_cast<double>(ddpg.state_dim));
  perf.add_metric("action_dim", static_cast<double>(ddpg.action_dim));
  perf.add_metric("phase_targets_s", snap.value("rl.phase.targets_ns") / 1e9);
  perf.add_metric("phase_critic_s", snap.value("rl.phase.critic_ns") / 1e9);
  perf.add_metric("phase_actor_s", snap.value("rl.phase.actor_ns") / 1e9);
  perf.add_metric("phase_soft_s",
                  snap.value("rl.phase.soft_update_ns") / 1e9);
  perf.add_metric("gemm_calls", snap.value("rl.gemm_calls"));
  perf.add_metric("replay_samples", snap.value("rl.replay_samples"));

  // --- baseline regression check (warn, never fail) -------------------------
  // The comparison metric is speedup_vs_reference: both sides of that
  // ratio run on the *current* host in the *current* binary, so it stays
  // meaningful on machines slower or faster than the one that recorded
  // the baseline. Absolute steps/s are printed for context only. The ratio
  // grows with the network width, so a baseline recorded at another
  // geometry says nothing about this run and is not compared.
  const std::string baseline = config.get_string("baseline", "");
  if (!baseline.empty()) {
    const double warn_pct = config.get_double("warn_pct", 30.0);
    const double base_speedup =
        baseline_metric(baseline, "speedup_vs_reference");
    const double base_rate = baseline_metric(baseline, "train_steps_per_sec");
    std::string mismatch;
    for (const auto& [key, value] :
         {std::pair<const char*, double>{"state_dim", ddpg.state_dim},
          {"action_dim", ddpg.action_dim},
          {"hidden", hidden},
          {"batch", batch}}) {
      const double base = baseline_metric(baseline, key);
      if (base != value)
        mismatch += format(" %s %g (run %g)", key, base, value);
    }
    if (!mismatch.empty()) {
      std::printf("[baseline] %s was recorded at another geometry:%s; "
                  "skipping comparison\n",
                  baseline.c_str(), mismatch.c_str());
    } else if (base_speedup <= 0.0) {
      std::printf("[baseline] %s has no speedup_vs_reference; skipping "
                  "comparison\n",
                  baseline.c_str());
    } else {
      const double delta_pct =
          100.0 * (speedup - base_speedup) / base_speedup;
      std::printf("[baseline] %s: %.2fx speedup (%.1f steps/s); fresh run "
                  "%.2fx (%+.1f%%)\n",
                  baseline.c_str(), base_speedup, base_rate, speedup,
                  delta_pct);
      if (delta_pct < -warn_pct) {
        std::printf("WARNING: batched-vs-reference speedup regressed "
                    "%.1f%% vs baseline (threshold %.0f%%) — the batched "
                    "engine is losing its win; investigate before merging\n",
                    -delta_pct, warn_pct);
      }
    }
  }
  return 0;
}
