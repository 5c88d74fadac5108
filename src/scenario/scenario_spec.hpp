#pragma once

#include <string>
#include <vector>

#include "common/config.hpp"
#include "core/environment.hpp"
#include "core/greennfv.hpp"
#include "topology/topology.hpp"

/// \file scenario_spec.hpp
/// The declarative experiment description every bench, example, and test
/// runs from: one value type naming the hardware, the chain topology, the
/// traffic mix (per-flow specs plus a macroscopic rate profile), the SLA,
/// the window/episode geometry, and the training budgets. A spec is
/// parseable from `Config` key=value arguments, round-trips to/from a
/// plain-text scenario file, and compiles down to the `core::EnvConfig` /
/// `core::TrainerConfig` the evaluation machinery consumes — so "run the
/// flash-crowd workload against every scheduler" is one line, not a new
/// main().

namespace greennfv::scenario {

/// How a static deployment (fleet.enabled=0) spreads its chains over its
/// nodes, once, before the first window: through the orchestrator policy
/// of the same name, in chain id order (first-fit-decreasing runs
/// first-fit).
enum class PlacementPolicy {
  kFirstFitDecreasing,
  kLeastLoaded,
  kEnergyBestFit,
};

/// Dynamic-fleet block of a scenario (the `fleet.*` key family): online
/// chain arrivals/departures, the placement/consolidation policy, the
/// migration cost model, and node power gating. Consumed by
/// `orchestrator::FleetOrchestrator`; a spec with `enabled == false` is a
/// static deployment there: chains placed once by `placement`, nothing
/// arriving, leaving or sleeping.
struct FleetSpec {
  bool enabled = false;  ///< fleet.enabled
  /// Simulated (measured) windows. 0 -> the scenario's eval_windows.
  int horizon_windows = 0;  ///< fleet.horizon
  /// Mean chain arrivals per window (Poisson, modulated by the scenario's
  /// RateProfile envelope — the fleet-level load shape). 0 freezes the
  /// fleet: no arrivals and no departures, the static degeneration case.
  double arrival_rate = 0.0;  ///< fleet.arrival_rate
  /// Mean chain holding time in windows (exponential, min one window).
  double mean_holding_windows = 20.0;  ///< fleet.mean_holding
  /// Traffic carried by each arriving chain.
  int flows_per_chain = 2;        ///< fleet.flows_per_chain
  double chain_offered_gbps = 4.0;  ///< fleet.chain_gbps
  /// Online placement policy (orchestrator registry name): first-fit,
  /// least-loaded, energy-bestfit, consolidate.
  std::string policy = "least-loaded";  ///< fleet.policy
  /// Master switch for consolidation migrations (the consolidate policy
  /// proposes them; this gate applies them).
  bool migration = true;  ///< fleet.migration
  /// Per migrated chain: downtime charged against its traffic/SLA, and
  /// the state-transfer energy added to the fleet bill.
  double migration_downtime_s = 0.5;  ///< fleet.migration_downtime_s
  double migration_energy_j = 25.0;   ///< fleet.migration_energy_j
  /// Consolidation trigger: drain a node whose core utilization sits
  /// below this fraction (when its chains fit elsewhere).
  double consolidate_below = 0.35;  ///< fleet.consolidate_below
  /// Power gating: an idle node falls asleep after this many consecutive
  /// empty windows (p_sleep_w draw; waking costs node wake_latency_s).
  bool power_gating = true;   ///< fleet.power_gating
  int sleep_after_windows = 2;  ///< fleet.sleep_after

  /// The policy names the orchestrator registry accepts — the one list;
  /// orchestrator::fleet_policy_names() returns it. Validated here so a
  /// typo'd fleet.policy fails at expansion, before anything runs.
  [[nodiscard]] static const std::vector<std::string>& policy_names();
};

/// Fault-injection block of a scenario (the `fault.*` key family): a
/// deterministic schedule of node crashes, correlated rack outages, link
/// failures/repairs, and wake-latency storms, expanded once from the
/// scenario seed (like arrivals) so both fleet engines replay the exact
/// same faults. Consumed by `orchestrator::build_fault_schedule`; a spec
/// with `enabled == false` injects nothing and leaves every history
/// byte-identical to a fault-free run.
struct FaultSpec {
  bool enabled = false;  ///< fault.enabled
  /// Mean node crashes per window (Poisson over the currently-up fleet).
  double node_crash_rate = 0.0;  ///< fault.node_crash_rate
  /// Mean link failures per window (Poisson over up links; requires
  /// topology.enabled — there is no fabric to fail otherwise).
  double link_fail_rate = 0.0;  ///< fault.link_fail_rate
  /// Mean correlated rack outages per window: one outage crashes every
  /// up node in a rack of `rack_size` consecutive node ids, and the whole
  /// rack repairs together.
  double rack_outage_rate = 0.0;  ///< fault.rack_outage_rate
  int rack_size = 4;              ///< fault.rack_size
  /// Mean repair delay in windows (exponential, min one window). A repair
  /// drawn past the horizon never lands — the node/link stays down.
  double mean_repair_windows = 4.0;  ///< fault.mean_repair
  /// Per re-placed chain: recovery downtime charged against its traffic
  /// and the state-rebuild energy added to the fleet bill.
  double replace_downtime_s = 1.0;  ///< fault.replace_downtime_s
  double replace_energy_j = 40.0;   ///< fault.replace_energy_j
  /// Wake-latency storms: each window is independently a storm window
  /// with this probability; every wake charge (arrival, consolidation, or
  /// recovery) during a storm costs `wake_storm_factor` times the normal
  /// downtime and energy.
  double wake_storm_prob = 0.0;    ///< fault.wake_storm_prob
  double wake_storm_factor = 4.0;  ///< fault.wake_storm_factor
};

struct ScenarioSpec {
  std::string name = "custom";
  /// Human-readable one-liner (preset listings only; not serialized).
  std::string description;

  // --- deployment ----------------------------------------------------------
  /// Hosting nodes. 1 = the single-node evaluations of Figs 9-10 (every
  /// chain on the one node); >1 places chains via `placement`, partitions
  /// the traffic per node, and aggregates fleet metrics.
  int num_nodes = 1;
  PlacementPolicy placement = PlacementPolicy::kLeastLoaded;
  hwmodel::NodeSpec node;
  /// Dynamic-fleet simulation (arrivals, migration, power gating). Off by
  /// default — every pre-fleet scenario is bit-identical to before.
  FleetSpec fleet;
  /// Inter-node network fabric (the `topology.*` key family): chains are
  /// routed ingress→host over capacitated links, link energy joins the
  /// fleet bill, and path latency is charged against `latency_sla_us`.
  /// Off by default — the wire stays free, bit-identical to before.
  topology::TopologySpec topology;
  /// End-to-end latency SLA (`sla.latency`, microseconds): a routed
  /// chain whose path latency exceeds this budget is an SLA violation in
  /// the fleet accounting. 0 disables the axis; requires topology.
  double latency_sla_us = 0.0;
  /// Fault injection (crashes, link failures, rack outages, wake storms).
  /// Off by default — every fault-free scenario is bit-identical to
  /// before.
  FaultSpec fault;

  // --- chain topology ------------------------------------------------------
  int num_chains = 3;
  /// Per-chain NF compositions (catalog names). Empty -> the standard
  /// heterogeneous rotation (nfvsim::standard_chain_nfs).
  std::vector<std::vector<std::string>> chain_nfs;

  // --- traffic mix ---------------------------------------------------------
  /// Used when `flows` is empty: the §5 workload generator over this many
  /// flows at this aggregate offered load.
  int num_flows = 5;
  double total_offered_gbps = 12.0;
  /// Explicit per-flow specs; overrides the generator when non-empty.
  std::vector<traffic::FlowSpec> flows;
  /// Macroscopic rate envelope: steady, diurnal, bursty, flash-crowd.
  traffic::RateProfile profile;

  // --- SLA -----------------------------------------------------------------
  core::SlaKind sla_kind = core::SlaKind::kEnergyEfficiency;
  double energy_budget_j = 2000.0;      ///< MaxThroughput constraint
  double throughput_floor_gbps = 7.5;   ///< MinEnergy constraint
  bool shaped_reward = false;

  // --- window/episode geometry --------------------------------------------
  double window_s = 10.0;
  int sub_windows = 5;
  int steps_per_episode = 8;
  int eval_windows = 12;

  // --- training budgets ----------------------------------------------------
  int episodes = 400;
  int q_episodes = 250;
  /// Seeds per GreenNFV variant for model selection.
  int candidates = 2;
  bool prioritized_replay = true;
  double noise_sigma = 0.45;
  double noise_decay = 0.9985;
  std::uint64_t seed = 42;

  /// The SLA object (MinEnergy's reference energy derives from the node's
  /// peak power over one window, as the figure benches compute it).
  [[nodiscard]] core::Sla sla() const;

  /// Same constants under an explicit kind — how a figure or roster entry
  /// derives its training SLA from the scenario's constraint constants.
  [[nodiscard]] core::Sla sla(core::SlaKind kind) const;

  /// Compiles the whole-deployment (single-node view) environment config.
  [[nodiscard]] core::EnvConfig env_config() const;

  /// Trainer config for one GreenNFV variant trained under `sla` on this
  /// scenario's environment.
  [[nodiscard]] core::TrainerConfig trainer_config(const core::Sla& sla)
      const;

  /// Overwrites fields named by `config` keys (see known_keys()). Unknown
  /// keys are NOT rejected here — callers combine scenario keys with their
  /// own and call Config::check_known with the union.
  void apply(const Config& config);

  /// Serializes to "key=value" lines; apply(Config::from_string(text))
  /// on a default spec reproduces this spec exactly.
  [[nodiscard]] std::string to_text() const;

  /// Scenario-file IO. Files are the to_text() format; '#' starts a
  /// comment that runs to end of line.
  void save(const std::string& path) const;
  [[nodiscard]] static ScenarioSpec load(const std::string& path);

  /// Throws std::invalid_argument naming the offending field (zero chains,
  /// empty traffic mix, negative rates, non-finite numbers, unknown NF
  /// names...).
  void validate() const;

  /// Every scalar key apply() understands, plus the indexed-family
  /// prefixes ("chain", "flow") — the vocabulary for Config::check_known.
  [[nodiscard]] static const std::vector<std::string>& known_keys();
  [[nodiscard]] static const std::vector<std::string>& known_prefixes();
};

/// Serialization helpers for the indexed families (shared with tests).
[[nodiscard]] std::string flow_to_text(const traffic::FlowSpec& flow);
[[nodiscard]] traffic::FlowSpec flow_from_text(const std::string& text,
                                               int id);

[[nodiscard]] std::string to_string(core::SlaKind kind);
[[nodiscard]] core::SlaKind sla_kind_from_string(const std::string& name);
[[nodiscard]] std::string to_string(PlacementPolicy policy);
[[nodiscard]] PlacementPolicy placement_from_string(const std::string& name);

}  // namespace greennfv::scenario
