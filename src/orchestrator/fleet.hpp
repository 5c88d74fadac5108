#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "orchestrator/policy.hpp"
#include "orchestrator/power_state.hpp"
#include "scenario/experiment.hpp"
#include "telemetry/stats.hpp"

/// \file fleet.hpp
/// The fleet orchestrator: a window-stepped multi-node simulation in which
/// service chains arrive and depart online, a pluggable policy places
/// (and consolidates) them, nodes power-gate when drained, and migrations
/// cost downtime + energy charged against the fleet SLA. The fleet
/// *history* (arrivals, placements, migrations, power states) depends
/// only on the scenario — it is pre-computed once as a FleetTimeline and
/// replayed identically for every roster model, so models are compared
/// against the same sequence of events. Per-node scheduling runs through
/// the existing per-node evaluation path (NfvEnvironment + NfController),
/// which is what keeps a one-node static deployment equal to
/// core::evaluate_scheduler. It is the one evaluator: a static scenario
/// (fleet.enabled=0) is this engine with nothing arriving.

namespace greennfv::telemetry {
class SeriesTable;
}  // namespace greennfv::telemetry

namespace greennfv::orchestrator {

/// One service chain over its fleet lifetime.
struct ChainInstance {
  int id = 0;
  std::vector<std::string> nfs;
  double cores = 0.0;
  /// This chain's flows (FlowSpec::chain_index == id).
  std::vector<traffic::FlowSpec> flows;
  double offered_gbps = 0.0;
  double offered_pps = 0.0;
  int arrival_window = 0;
  /// Window at whose start the chain leaves; -1 = stays to the end.
  int departure_window = -1;
  /// Node hosting the chain at arrival (-1 = rejected).
  int first_node = -1;
  /// Routed path at arrival (topology runs only): hop count and exact
  /// end-to-end latency in integral ns. -1/0 = unrouted (no topology,
  /// rejected, or no feasible path).
  int path_hops = -1;
  std::int64_t path_latency_ns = 0;
};

/// What a DowntimeCharge pays for. Wake and migration predate fault
/// injection; replace charges the recovery re-placement of a chain
/// evicted by a fault, and drop charges the window in which a chain died
/// because no node/path could take it.
enum class ChargeKind { kWake, kMigration, kReplace, kDrop };

/// A downtime/energy charge against one chain in one window.
struct DowntimeCharge {
  int chain = 0;
  double downtime_s = 0.0;
  double energy_j = 0.0;
  ChargeKind kind = ChargeKind::kWake;
};

/// The fleet history's totals, accumulated window by window while the
/// timeline is built and carried unchanged into every FleetReport.
struct FleetTotals {
  int arrivals = 0;
  int departures = 0;
  int rejected = 0;
  int migrations = 0;
  int wakeups = 0;
  double standby_energy_j = 0.0;
  double wake_energy_j = 0.0;
  double migration_energy_j = 0.0;
  double downtime_s = 0.0;
  /// Chains-per-node over every (node, window) cell.
  telemetry::CountHistogram occupancy;

  /// Network totals (topology runs only; all defaults otherwise — the
  /// serializer gates its topology block on `topology_enabled` so
  /// pre-topology timelines stay byte-identical).
  bool topology_enabled = false;
  int topology_switches = 0;
  int topology_links = 0;
  int net_rejected = 0;
  int net_blocked = 0;
  /// Chain-window sums of each window's fabric state
  /// (FleetTimeline::Window::routed_chains and the two after it).
  std::int64_t routed_chain_windows = 0;
  std::int64_t latency_violation_chain_windows = 0;
  std::int64_t path_latency_sum_ns = 0;
  double link_energy_j = 0.0;

  /// Fault totals (fault runs only; all defaults otherwise — the
  /// serializer gates its fault block on `fault_enabled` so fault-free
  /// timelines stay byte-identical to the pre-fault goldens).
  bool fault_enabled = false;
  int node_crashes = 0;
  int node_repairs = 0;
  int link_fails = 0;
  int link_repairs = 0;
  int rack_outages = 0;
  int storm_windows = 0;
  int replaced = 0;        ///< evicted chains successfully re-placed
  int fault_dropped = 0;   ///< evicted chains no node/path could take
  int rerouted = 0;        ///< chains re-pathed in place after a link fail
  double replace_energy_j = 0.0;
};

/// The model-independent fleet history.
struct FleetTimeline : FleetTotals {
  struct Window {
    std::vector<int> arrivals;    ///< chain ids placed this window
    std::vector<int> departures;  ///< chain ids gone at window start
    int rejected = 0;
    std::vector<Migration> migrations;
    std::vector<DowntimeCharge> charges;
    /// Idle + sleep draw of every unoccupied node this window.
    double standby_energy_j = 0.0;
    int active_nodes = 0;
    int idle_nodes = 0;
    int asleep_nodes = 0;
    int live_chains = 0;
    /// Network accounting (topology runs only; all-zero otherwise).
    /// Rejections that had cores but no feasible path; consolidation
    /// moves vetoed because the new path would oversubscribe a link.
    int net_rejected = 0;
    int net_blocked = 0;
    /// End-of-window fabric state: chains holding a path, how many of
    /// them exceed the latency budget, their exact summed path latency
    /// (integral ns — order-independent), and the window's link energy.
    int routed_chains = 0;
    int latency_violations = 0;
    std::int64_t path_latency_sum_ns = 0;
    double link_energy_j = 0.0;
    /// Fault accounting (fault runs only; all-zero otherwise). Injections
    /// applied at the start of this window, the recovery outcome per
    /// evicted chain (replacements in application order, then drops), the
    /// chains re-routed in place after a link failure, and the number of
    /// nodes down at the end of the window.
    int node_crashes = 0;
    int node_repairs = 0;
    int link_fails = 0;
    int link_repairs = 0;
    std::vector<Migration> replacements;
    std::vector<int> fault_dropped;
    int rerouted = 0;
    int down_nodes = 0;
  };

  // Per-window membership snapshots are NOT stored — at hyperscale
  // (10k nodes x hundreds of windows) they dominate memory. Reconstruct
  // hosted-chain lists from the per-window deltas with MembershipReplay
  // (timeline_io.hpp); the replay is exact because arrivals record their
  // first_node and migrations/departures are logged per window.
  std::vector<Window> windows;
  /// Fleet width (spec.num_nodes) — what MembershipReplay needs to size
  /// per-node state without the spec in hand.
  int num_nodes = 0;
  /// Every chain ever seen, indexed by id.
  std::vector<ChainInstance> chains;
  /// Fleet-wide flow list in arrival order (chain_index = chain id) —
  /// the form scenario::partition_node_env consumes.
  std::vector<traffic::FlowSpec> flows;

  /// Per-window health series (fleet_series.hpp schema), captured only
  /// when telemetry::series::enabled() — null otherwise. Pure
  /// observability: never read by the engines or the serializer, so
  /// timelines stay byte-identical with sampling on or off.
  std::shared_ptr<const telemetry::SeriesTable> series;
};

/// A fleet evaluation: the uniform EvalReport (per-model means + telemetry
/// series, campaign/artifact compatible) plus the fleet history summary.
struct FleetReport : FleetTotals {
  scenario::EvalReport report;
  // Derived from the shared fleet history (identical for every model by
  // construction):
  double mean_active_nodes = 0.0;
  double mean_asleep_nodes = 0.0;
  double mean_live_chains = 0.0;
  double mean_down_nodes = 0.0;
  /// Fraction of node-windows hosting k chains, index = k.
  std::vector<double> occupancy_fractions;

  /// Network block (topology runs only; defaults otherwise). Mean
  /// routed-path latency (us) over chain-windows, and the fraction of
  /// chain-windows inside the sla.latency budget (1.0 when no budget).
  std::string topology_preset;
  std::string topology_routing;
  double mean_path_latency_us = 0.0;
  double latency_sla_satisfaction = 1.0;
  double latency_budget_us = 0.0;

  /// Printable fleet-history block (under the EvalReport table).
  [[nodiscard]] std::string fleet_summary() const;
};

class FleetOrchestrator {
 public:
  /// Validates the spec and pre-computes the fleet timeline. A spec with
  /// fleet.enabled=0 is a static deployment: its chains are placed once at
  /// window 0 by `placement` (all of them on the node when there is one),
  /// nothing arrives, migrates or sleeps, and every empty node draws
  /// node_p_idle_w. Throws std::invalid_argument on bad specs, including a
  /// static chain no node can take and a static node without traffic —
  /// before anything trains or runs.
  explicit FleetOrchestrator(scenario::ScenarioSpec spec);

  /// Same, but drives placement/consolidation with `policy` instead of
  /// the spec's named policy — the seam custom-policy tests (e.g. the
  /// wake-charge regression suite) inject through.
  FleetOrchestrator(scenario::ScenarioSpec spec,
                    std::unique_ptr<FleetPolicy> policy);

  FleetOrchestrator(FleetOrchestrator&&) noexcept;
  FleetOrchestrator& operator=(FleetOrchestrator&&) noexcept;
  ~FleetOrchestrator();

  [[nodiscard]] const scenario::ScenarioSpec& spec() const { return spec_; }
  [[nodiscard]] const FleetTimeline& timeline() const { return timeline_; }
  /// Measured windows (fleet.horizon, or the scenario's eval_windows).
  [[nodiscard]] int horizon() const { return horizon_; }

  /// Evaluates every roster model against the identical fleet history.
  FleetReport run(const std::vector<scenario::SchedulerFactory>& roster);

  /// One model: per-window fleet series recorded under
  /// scenario::series_prefix(entry.name) into `recorder`; a null recorder
  /// records nothing. Per-node series (`node<i>_throughput_gbps`,
  /// `node<i>_energy_j`) are recorded only for fleets of at most 64 nodes
  /// — at hyperscale they would dwarf every other artifact — and not on
  /// one-node static deployments. The fleet-history series (active_nodes,
  /// asleep_nodes, live_chains, arrivals, departures, migrations,
  /// rejected) are fleet-only.
  ///
  /// The first call plans the replay once for every model: each node's
  /// membership changes and the (node, chain count) keys in first-use
  /// order. Every scheduler is then made, on the calling thread, in that
  /// order; a make that throws fails the call before any replay. Fleets
  /// of 8 or more nodes then replay their nodes with
  /// ThreadPool::parallel_for on every hardware thread, which runs them
  /// inline when the caller is itself inside a range (a campaign cell at
  /// jobs > 1), and each node's task frees its runtime after the last
  /// window. Either way the report is bit-identical, and a scheduler
  /// that throws mid-replay surfaces the failure a window-by-window loop
  /// would meet first.
  scenario::ModelReport run_model(const scenario::SchedulerFactory& entry,
                                  telemetry::Recorder* recorder);

 private:
  scenario::ScenarioSpec spec_;
  /// Non-null when a custom policy was injected through the two-argument
  /// constructor; otherwise the spec's named policy is instantiated.
  std::unique_ptr<FleetPolicy> policy_override_;
  int horizon_ = 0;
  /// fleet.enabled=0: placement by `placement`, no power gating, and the
  /// report carries no fleet-history series.
  bool static_deployment_ = false;
  /// arrival_rate == 0 (or a static deployment) freezes the fleet: no
  /// arrivals, no departures, no migrations.
  bool static_fleet_ = true;
  double capacity_cores_ = 0.0;
  FleetTimeline timeline_;
  /// The replay inputs no model changes (fleet.cpp). The first run_model
  /// builds it, so fleets that never replay never pay for it.
  struct ReplayPlan;
  std::unique_ptr<const ReplayPlan> plan_;

  void build_timeline();
  const ReplayPlan& replay_plan();
};

}  // namespace greennfv::orchestrator
