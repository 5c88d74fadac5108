/// Quickstart: resolve the paper-default scenario, walk its deployment
/// through one control window, and push real packets through the threaded
/// engine — the platform tour in five steps.
///
///   build/examples/quickstart
///
/// This walks the same public API the benchmarks use:
///   1. ScenarioSpec — the declarative experiment description
///   2. NfvEnvironment — chains + knobs + traffic compiled from the spec
///   3. run_window — one measured control interval (Gbps, joules, drops)
///   4. ThreadedEngine — the real multi-threaded packet path
///   5. FleetOrchestrator — the full model-comparison harness in two lines

#include <cstdio>

#include "common/units.hpp"
#include "core/environment.hpp"
#include "nfvsim/engine_threaded.hpp"
#include "orchestrator/fleet.hpp"
#include "scenario/experiment.hpp"
#include "scenario/presets.hpp"

using namespace greennfv;
using namespace greennfv::nfvsim;

int main() {
  std::printf("GreenNFV quickstart\n===================\n\n");

  // --- 1. the declarative scenario -------------------------------------------
  const scenario::ScenarioSpec spec = scenario::preset("paper-default");
  std::printf("scenario %s: %d chains, %d flows at %.0f Gbps, %s SLA\n\n",
              spec.name.c_str(), spec.num_chains, spec.num_flows,
              spec.total_offered_gbps, spec.sla().name().c_str());

  // --- 2. the environment it compiles to --------------------------------------
  core::NfvEnvironment env(spec.env_config(), /*seed=*/42);
  ChainKnobs knobs;  // the five GreenNFV control knobs
  knobs.cores = 2.0;
  knobs.freq_ghz = 1.8;
  knobs.llc_fraction = 0.5;
  knobs.dma_bytes = 8ull * units::kMiB;
  knobs.batch = 64;
  const ChainKnobs applied = env.controller().apply_knobs(0, knobs);
  std::printf("applied knobs to chain 0: %s\n\n",
              applied.to_string().c_str());

  // --- 3. one measured control window ------------------------------------------
  const std::vector<ChainKnobs> all_knobs(
      static_cast<std::size_t>(spec.num_chains), knobs);
  const auto outcome = env.run_window(all_knobs);
  std::printf("one %.0f s control window under live traffic:\n",
              spec.window_s);
  std::printf("  throughput : %6.2f Gbps\n", outcome.throughput_gbps);
  std::printf("  energy     : %6.1f J\n", outcome.energy_j);
  std::printf("  efficiency : %6.2f Gbps/KJ\n", outcome.efficiency);
  std::printf("  drops      : %6.2f %%\n", outcome.drop_fraction * 100.0);

  // --- 4. the real threaded data path -----------------------------------------
  ThreadedEngine::Options options;
  options.total_packets = 200000;
  ThreadedEngine threaded(env.controller(), options);
  traffic::FlowSpec tflow;
  tflow.pkt_bytes = 512;
  tflow.mean_rate_pps = 1e6;
  const auto report = threaded.run({tflow}, /*seed=*/7);
  std::printf("\nthreaded engine, %llu real packets through real NFs:\n",
              static_cast<unsigned long long>(report.generated));
  std::printf("  delivered  : %llu (%.2f Mpps wall-clock)\n",
              static_cast<unsigned long long>(report.delivered),
              report.delivered_pps / 1e6);
  std::printf("  NF drops   : %llu (ACL denies, TTL expiry...)\n",
              static_cast<unsigned long long>(report.nf_drops));
  std::printf("  ring drops : %llu\n",
              static_cast<unsigned long long>(report.rx_ring_drops));
  std::printf("  conserved  : %s\n", report.conserved() ? "yes" : "NO");

  // --- 5. the full harness in two lines ----------------------------------------
  scenario::ScenarioSpec quick = scenario::preset("ci-smoke");
  orchestrator::FleetOrchestrator runner(quick);
  const scenario::EvalReport eval =
      runner.run(scenario::untrained_roster(quick)).report;
  std::printf("\nreactive roster on the %s scenario:\n\n%s",
              quick.name.c_str(), eval.table().c_str());
  std::printf("\ndone — examples/sla_training.cpp adds the learning loop,"
              "\nexamples/run_scenario.cpp runs any scenario end to end.\n");
  return 0;
}
