#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/nf_controller.hpp"
#include "scenario/scenario_spec.hpp"
#include "telemetry/recorder.hpp"

/// \file experiment.hpp
/// The uniform evaluation surface: the roster of scheduler factories, the
/// per-node deployment plumbing, and the EvalReport every evaluation
/// returns. orchestrator::FleetOrchestrator is the one evaluator: it runs
/// each model through the identical NfvEnvironment::run_window loop the
/// paper's Fig. 9 comparison uses, static scenarios included.

namespace greennfv::scenario {

/// Builds one scheduling model for a (possibly per-node) environment
/// shape. `make` receives the evaluation EnvConfig (scenario SLA included)
/// and the scenario's base seed; trained models derive their training SLA
/// and seed offsets internally, mirroring the figure benches' seed
/// discipline.
struct SchedulerFactory {
  std::string name;
  /// Unrecorded settling windows before measurement (Algorithm 1 converges
  /// slowly, so the heuristic gets a long one).
  int warmup = 2;
  std::function<std::unique_ptr<core::Scheduler>(
      const core::EnvConfig& env, std::uint64_t seed)>
      make;
};

/// The full Fig. 9 roster in table order: Baseline, Heuristics, EE-Pstate,
/// Q-Learning, GreenNFV(MinE), GreenNFV(MaxT), GreenNFV(EE) — training
/// budgets, SLA constants, and seed offsets taken from the spec.
[[nodiscard]] std::vector<SchedulerFactory> default_roster(
    const ScenarioSpec& spec);

/// The non-trained subset (Baseline, Heuristics, EE-Pstate): instant to
/// build, useful for smoke runs and reactive-control studies.
[[nodiscard]] std::vector<SchedulerFactory> untrained_roster(
    const ScenarioSpec& spec);

/// Picks roster entries by comma-separated name list (case and punctuation
/// insensitive: "greennfv-maxt" matches "GreenNFV(MaxT)"). Unknown names
/// are a hard error listing what the roster offers, and so is a model
/// picked twice (its runs would share one set of series).
[[nodiscard]] std::vector<SchedulerFactory> filter_roster(
    const std::vector<SchedulerFactory>& roster, const std::string& csv);

/// The telemetry prefix a model's per-window series are recorded under
/// ("GreenNFV(MaxT)" -> "greennfv_maxt_").
[[nodiscard]] std::string series_prefix(const std::string& model_name);

// --- deployment plumbing for orchestrator::FleetOrchestrator --------------

/// Fig. 9's evaluation-seed discipline: the seed a node's evaluation
/// environment is built from (base + eval offset + per-node stride, so
/// cluster nodes run independent traffic realizations).
[[nodiscard]] std::uint64_t node_eval_seed(const ScenarioSpec& spec,
                                           std::size_t node);

/// The scenario's resolved flow list: explicit `flows`, or the §5 workload
/// generator over num_flows/total_offered_gbps at the scenario seed (the
/// form the cluster partition consumes).
[[nodiscard]] std::vector<traffic::FlowSpec> resolved_flows(
    const ScenarioSpec& spec);

/// The scenario's resolved per-chain NF compositions (explicit chain_nfs,
/// or the standard heterogeneous rotation).
[[nodiscard]] std::vector<std::vector<std::string>> resolved_chain_nfs(
    const ScenarioSpec& spec);

/// Builds the evaluation EnvConfig of one node hosting `local_chains`
/// (indices into `comps`; flows are matched by FlowSpec::chain_index and
/// remapped to node-local chain indices in flow-list order). Throws
/// std::invalid_argument when the node would host chains without traffic.
[[nodiscard]] core::EnvConfig partition_node_env(
    const ScenarioSpec& spec,
    const std::vector<std::vector<std::string>>& comps,
    const std::vector<traffic::FlowSpec>& flows,
    const std::vector<int>& local_chains, int node);

/// partition_node_env once its inputs are node-local: `chain_nfs[i]` is
/// local chain i's composition and every flow's chain_index is already a
/// local index. Flow ids are renumbered in list order.
[[nodiscard]] core::EnvConfig node_env(
    const ScenarioSpec& spec, std::vector<std::vector<std::string>> chain_nfs,
    std::vector<traffic::FlowSpec> flows, int node);

struct ModelReport {
  core::EvalResult result;
  /// This model's series live at `<series_prefix>throughput_gbps`,
  /// `...energy_j`, `...power_w`, `...efficiency`, `...drop_fraction`,
  /// `...offered_pps` in the report recorder (plus the fleet's own series,
  /// see FleetOrchestrator::run_model).
  std::string prefix;
};

struct EvalReport {
  std::string scenario;
  int nodes = 1;
  std::vector<ModelReport> models;
  telemetry::Recorder series;

  /// The Fig. 9-style comparison table (ratios vs the first row).
  [[nodiscard]] std::string table() const;
};

}  // namespace greennfv::scenario
