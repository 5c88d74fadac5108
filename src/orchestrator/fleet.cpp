#include "orchestrator/fleet.hpp"

#include <algorithm>
#include <exception>
#include <iterator>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "common/rng.hpp"
#include "common/string_util.hpp"
#include "common/thread_pool.hpp"
#include "core/nf_controller.hpp"
#include "nfvsim/chain.hpp"
#include "orchestrator/fault.hpp"
#include "orchestrator/fleet_index.hpp"
#include "orchestrator/fleet_series.hpp"
#include "orchestrator/timeline_io.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "topology/path_table.hpp"
#include "traffic/generator.hpp"

// The timeline builder here is a window loop: each window runs
// departures, faults, arrivals, consolidation and accounting, in that
// order, and a FleetIndex answers placement queries from occupancy
// buckets in O(core levels). It is proven bit-identical to the
// scan-every-node engine it replaced (preserved in fleet_reference.cpp)
// by the golden suite and the live equivalence tests: same RNG draw
// order, same floating-point accumulation order, same policy
// tie-breaks.

namespace greennfv::orchestrator {

namespace {

/// Salt separating the fleet event stream (arrivals, holding times, flow
/// shapes) from every other consumer of the scenario seed.
constexpr std::uint64_t kTimelineSeedSalt = 0xF1EE7C0FFEEull;
/// Per-epoch stride on the node evaluation seed: a node whose chain set
/// changed re-seeds its environment on a fresh stream; epoch 0 IS
/// scenario::node_eval_seed, the seed a static node has always run on.
constexpr std::uint64_t kEpochSeedStride = 0x9E3779B97F4A7C15ull;

/// Windows one replay block advances before the reduction consumes them:
/// few joins per model, and a nodes x block outcome buffer that stays
/// small at 10k nodes (the whole horizon would not).
constexpr int kBlockWindows = 16;
/// Narrower fleets replay inline: their blocks are too short to pay for
/// waking workers, and a one-node run never starts a thread.
constexpr int kParallelMinNodes = 8;

/// The pool replay blocks fan out on: every hardware thread but the
/// caller's, which claims nodes too. Created at the first parallel block
/// and kept for the process lifetime, so later blocks, models and fleets
/// start no threads.
ThreadPool& replay_pool() {
  static ThreadPool pool(ThreadPool::hardware_threads() - 1);
  return pool;
}

/// One node's window outcome, as much of it as the reduction reads.
struct NodeOutcome {
  double throughput_gbps = 0.0;
  double energy_j = 0.0;
  double offered_pps = 0.0;
  double drop_fraction = 0.0;
  double efficiency = 0.0;
  bool sla_satisfied = false;
};

/// A node's hosted chain set from `window` on: `count` chain ids at
/// `offset` in the replay's member pool (count 0 = drained).
struct MembershipChange {
  int window = 0;
  std::size_t offset = 0;
  std::size_t count = 0;
};

/// Where a node's replay failed, ordered as the window-major serial loop
/// meets failures: by window, then a window's rebuilds before its
/// advances, then by node.
struct ReplayFailure {
  enum Stage { kRebuild, kAdvance };
  int window = 0;
  Stage stage = kRebuild;
  int node = 0;
  std::exception_ptr error;

  [[nodiscard]] bool before(const ReplayFailure& other) const {
    return std::tie(window, stage, node) <
           std::tie(other.window, other.stage, other.node);
  }
};

/// The registry policy that places a static deployment's chains: the one
/// its `placement` names, with first-fit for first-fit-decreasing (chains
/// are placed in id order).
std::string placement_policy_name(scenario::PlacementPolicy placement) {
  return placement == scenario::PlacementPolicy::kFirstFitDecreasing
             ? "first-fit"
             : scenario::to_string(placement);
}

}  // namespace

FleetOrchestrator::FleetOrchestrator(scenario::ScenarioSpec spec)
    : FleetOrchestrator(std::move(spec), nullptr) {}

FleetOrchestrator::FleetOrchestrator(scenario::ScenarioSpec spec,
                                     std::unique_ptr<FleetPolicy> policy)
    : spec_(std::move(spec)), policy_override_(std::move(policy)) {
  spec_.validate();
  static_deployment_ = !spec_.fleet.enabled;
  horizon_ = !static_deployment_ && spec_.fleet.horizon_windows > 0
                 ? spec_.fleet.horizon_windows
                 : spec_.eval_windows;
  static_fleet_ = static_deployment_ || spec_.fleet.arrival_rate == 0.0;
  capacity_cores_ = static_cast<double>(spec_.node.total_cores) -
                    spec_.node.controller_cores;
  if (capacity_cores_ <= 0.0) {
    throw std::invalid_argument(
        "orchestrator: node has no schedulable cores (total_cores minus"
        " controller_cores must be positive)");
  }
  build_timeline();
}

void FleetOrchestrator::build_timeline() {
  namespace mc = telemetry::metrics;
  // Explicit Span (not the macro) so the phase timer keeps accumulating
  // when the tracer is compiled out — same for every timer-carrying span
  // in this file.
  const telemetry::trace::Span build_span(
      "fleet/build_timeline", &mc::counter("fleet.phase.build_ns"));
  const int num_nodes = spec_.num_nodes;
  const double window_s = spec_.window_s;
  timeline_.num_nodes = num_nodes;
  Rng rng(spec_.seed ^ kTimelineSeedSalt);
  const std::string policy_name = static_deployment_
                                      ? placement_policy_name(spec_.placement)
                                      : spec_.fleet.policy;
  const std::unique_ptr<FleetPolicy> owned_policy =
      policy_override_ == nullptr ? make_fleet_policy(policy_name) : nullptr;
  const FleetPolicy* policy = policy_override_ != nullptr
                                  ? policy_override_.get()
                                  : owned_policy.get();
  const PowerStateConfig ps_config{
      spec_.node.p_idle_w, spec_.node.p_sleep_w, spec_.node.wake_latency_s,
      spec_.fleet.sleep_after_windows,
      spec_.fleet.power_gating && !static_deployment_};
  std::vector<NodePowerStateMachine> power(
      static_cast<std::size_t>(num_nodes), NodePowerStateMachine(ps_config));
  FleetIndex index(num_nodes, capacity_cores_);

  // --- the network fabric (topology runs only) -----------------------------
  // Built once per timeline; PathTable's integer kbps/ns accounting makes
  // its state a pure function of the active chain set, so this engine and
  // the reference engine agree regardless of their release orderings.
  std::unique_ptr<topology::Topology> topo;
  std::unique_ptr<topology::PathTable> net_owned;
  if (spec_.topology.enabled) {
    topo = std::make_unique<topology::Topology>(
        topology::Topology::build(spec_.topology, num_nodes));
    net_owned = std::make_unique<topology::PathTable>(
        *topo, topology::routing_from_name(spec_.topology.routing),
        topology::ns_from_us(spec_.latency_sla_us));
    timeline_.topology_enabled = true;
    timeline_.topology_switches = topo->num_switches();
    timeline_.topology_links = topo->num_links();
  }
  topology::PathTable* const net = net_owned.get();

  // --- the fault schedule (fault runs only) -------------------------------
  // Expanded once from its own salted RNG stream, exactly like the
  // arrival process: a pure function of (spec, horizon, fleet shape) both
  // engines consume verbatim. fault.enabled=0 draws nothing, so every
  // pre-fault history keeps its bits.
  const FaultSchedule faults = build_fault_schedule(
      spec_, horizon_, num_nodes, net != nullptr ? topo->num_links() : 0);
  if (spec_.fault.enabled) {
    timeline_.fault_enabled = true;
    timeline_.node_crashes = faults.node_crashes;
    timeline_.node_repairs = faults.node_repairs;
    timeline_.link_fails = faults.link_fails;
    timeline_.link_repairs = faults.link_repairs;
    timeline_.rack_outages = faults.rack_outages;
    timeline_.storm_windows = faults.storm_windows;
  }

  // --- the initial chain set (the scenario's static topology) -------------
  const auto comps = scenario::resolved_chain_nfs(spec_);
  timeline_.flows = scenario::resolved_flows(spec_);
  for (int c = 0; c < spec_.num_chains; ++c) {
    ChainInstance chain;
    chain.id = c;
    chain.nfs = comps[static_cast<std::size_t>(c)];
    // Algorithm 1 line 1 allocates one core per NF.
    chain.cores = static_cast<double>(chain.nfs.size());
    for (const auto& flow : timeline_.flows) {
      if (flow.chain_index != c) continue;
      chain.flows.push_back(flow);
      chain.offered_gbps += flow.mean_rate_gbps();
      chain.offered_pps += flow.mean_rate_pps;
    }
    // A static chain may run without traffic beside chains that have it
    // (checked per node once placed).
    if (chain.flows.empty() && !static_deployment_) {
      throw std::invalid_argument(format(
          "orchestrator: initial chain %d receives no flows (fleet runs"
          " need traffic on every initial chain)",
          c));
    }
    timeline_.chains.push_back(std::move(chain));
  }

  // Minimum one window of residency; exponential holding beyond that.
  const auto draw_holding = [&]() {
    return 1 + static_cast<int>(
                   rng.exponential(1.0 / spec_.fleet.mean_holding_windows));
  };

  // The departure calendar: the chains whose holding time ends at each
  // window edge, appended as they are placed. Chains are placed in
  // ascending id order, so every list is already sorted.
  std::vector<std::vector<int>> departing(static_cast<std::size_t>(horizon_));

  // Nodes perturbed since the last accounting step: only these can have
  // unsorted hosted lists (migration receivers) — everyone else keeps
  // the sorted-at-window-edge invariant for free.
  std::vector<int> dirty;

  // Powers `node` up for `chain`. Waking a gated node charges the chain
  // its wake latency and boot energy, `wake_storm_factor`x during storm
  // windows (cold nodes thundering awake under datacenter-wide pressure)
  // and 1.0x otherwise — multiplying by 1.0 is exact, so fault-free runs
  // are untouched bit for bit.
  const auto activate = [&](int node, int chain, int w,
                            FleetTimeline::Window& win) {
    const auto charge = power[static_cast<std::size_t>(node)].activate();
    if (!charge.woke) return;
    const double scale =
        faults.storm_active(w) ? spec_.fault.wake_storm_factor : 1.0;
    index.wake(node);
    ++timeline_.wakeups;
    win.charges.push_back({chain, charge.downtime_s * scale,
                           charge.energy_j * scale, ChargeKind::kWake});
    timeline_.wake_energy_j += charge.energy_j * scale;
    timeline_.downtime_s += charge.downtime_s * scale;
  };

  const auto place = [&](int id, int w, FleetTimeline::Window& win) {
    ChainInstance& chain = timeline_.chains[static_cast<std::size_t>(id)];
    const ArrivalRequest request{chain.cores, chain.offered_gbps};
    // A one-node static deployment hosts every chain, however full.
    const int node = static_deployment_ && num_nodes == 1
                         ? 0
                         : policy->choose_arrival_indexed(index, request, net);
    if (node < 0) {
      if (static_deployment_) {
        throw std::invalid_argument(format(
            "orchestrator: static chain %d (%.0f cores) fits on no node", id,
            chain.cores));
      }
      ++win.rejected;
      ++timeline_.rejected;
      chain.first_node = -1;
      return;
    }
    // Network admission before anything commits: a placement whose path
    // would oversubscribe a link is rejected here, and the node is never
    // spuriously woken for it.
    if (net != nullptr && !net->commit_chain(id, node, chain.offered_gbps)) {
      ++win.rejected;
      ++timeline_.rejected;
      ++win.net_rejected;
      ++timeline_.net_rejected;
      chain.first_node = -1;
      return;
    }
    if (net != nullptr) {
      chain.path_hops = net->chain_hops(id);
      chain.path_latency_ns = net->chain_latency_ns(id);
    }
    activate(node, id, w, win);
    index.place_chain(id, node, chain.cores, chain.offered_gbps);
    win.arrivals.push_back(id);
    ++timeline_.arrivals;
    chain.first_node = node;
    dirty.push_back(node);
    if (!static_fleet_ && chain.departure_window >= 0 &&
        chain.departure_window < horizon_) {
      departing[static_cast<std::size_t>(chain.departure_window)].push_back(
          id);
    }
  };

  // Recovery re-placement for a chain a fault evicted from `from`: the
  // same policy seam that places arrivals picks the new host, the move
  // pays a replace charge (plus a wake charge if the host was asleep),
  // and a chain no node/path can take is dropped — it pays one full
  // window of downtime and leaves the fleet for good (its calendar entry
  // is skipped when its departure window comes).
  const auto replace_chain = [&](int id, int from, int w,
                                 FleetTimeline::Window& win) {
    const ChainInstance& chain =
        timeline_.chains[static_cast<std::size_t>(id)];
    const ArrivalRequest request{chain.cores, chain.offered_gbps};
    const int node = policy->choose_arrival_indexed(index, request, net);
    bool placed = node >= 0;
    if (placed && net != nullptr &&
        !net->commit_chain(id, node, chain.offered_gbps)) {
      placed = false;
    }
    if (!placed) {
      win.fault_dropped.push_back(id);
      ++timeline_.fault_dropped;
      win.charges.push_back({id, window_s, 0.0, ChargeKind::kDrop});
      timeline_.downtime_s += window_s;
      return;
    }
    activate(node, id, w, win);
    index.place_chain(id, node, chain.cores, chain.offered_gbps);
    win.replacements.push_back({id, from, node});
    ++timeline_.replaced;
    win.charges.push_back({id, spec_.fault.replace_downtime_s,
                           spec_.fault.replace_energy_j,
                           ChargeKind::kReplace});
    timeline_.replace_energy_j += spec_.fault.replace_energy_j;
    timeline_.downtime_s += spec_.fault.replace_downtime_s;
    dirty.push_back(node);
  };

  timeline_.windows.resize(static_cast<std::size_t>(horizon_));
  int next_id = spec_.num_chains;

  // Flight-recorder handles, hoisted out of the window loop. Departures
  // are far too many for per-chain spans (a mega-fleet run sees ~1M of
  // them — two clock reads each would blow the <5% overhead budget), so
  // they are counted only; the other steps each get a per-window span
  // that doubles as the phase-time accumulator.
  auto& c_ev_departure = mc::counter("fleet.events.departure");
  auto& c_ev_fault = mc::counter("fleet.events.fault_tick");
  auto& c_phase_fault = mc::counter("fleet.phase.recover_ns");
  auto& c_ev_arrival = mc::counter("fleet.events.arrival_tick");
  auto& c_ev_consolidate = mc::counter("fleet.events.consolidate_tick");
  auto& c_ev_account = mc::counter("fleet.events.account_tick");
  auto& c_phase_arrival = mc::counter("fleet.phase.arrival_ns");
  auto& c_phase_consolidate = mc::counter("fleet.phase.consolidate_ns");
  auto& c_phase_account = mc::counter("fleet.phase.account_ns");
  auto& c_mig_attempted = mc::counter("fleet.migrations.attempted");

  // Per-window health sampler — inert unless telemetry::series::enabled().
  // It only *reads* window state after accounting closes, so arming it
  // cannot perturb the timeline.
  FleetSeriesSampler sampler(horizon_, window_s,
                             /*armed=*/!static_deployment_);

  for (int w = 0; w < horizon_; ++w) {
    FleetTimeline::Window& win =
        timeline_.windows[static_cast<std::size_t>(w)];

    // --- departures: holding times that expired at this window edge -------
    const std::vector<int>& leaving =
        departing[static_cast<std::size_t>(w)];
    c_ev_departure.add(leaving.size());
    for (const int id : leaving) {
      const int node = index.chain_node(id);
      // A fault dropped this chain before its holding time ran out — it
      // already left the fleet; its departure never happens.
      if (node < 0) continue;
      dirty.push_back(node);
      index.remove_chain(id);
      if (net != nullptr) net->release_chain(id);
      win.departures.push_back(id);
      ++timeline_.departures;
    }

    // --- faults: inject this window's schedule and recover ----------------
    // Crashed nodes evict their chains through the placement policy,
    // failed links re-route or evict their riders, repairs return capacity.
    if (spec_.fault.enabled) {
      c_ev_fault.add();
      const telemetry::trace::Span recover_span(
          "fleet/recover", static_cast<std::uint64_t>(w), &c_phase_fault);
      for (const FaultEvent& ev :
           faults.windows[static_cast<std::size_t>(w)]) {
        switch (ev.kind) {
          case FaultEvent::Kind::kNodeCrash: {
            const int node = ev.target;
            ++win.node_crashes;
            // Copy: eviction mutates the hosted list underneath. Sort: a
            // same-window replacement may have appended out of order, and
            // eviction order is part of the bit-identity contract.
            std::vector<int> victims = index.hosted(node);
            std::sort(victims.begin(), victims.end());
            for (const int id : victims) {
              index.remove_chain(id);
              if (net != nullptr) net->release_chain(id);
            }
            index.crash(node);
            // The node loses its power state with everything else; it
            // comes back cold (fresh machine, Idle) at repair.
            power[static_cast<std::size_t>(node)] =
                NodePowerStateMachine(ps_config);
            dirty.push_back(node);
            for (const int id : victims) replace_chain(id, node, w, win);
            break;
          }
          case FaultEvent::Kind::kNodeRepair: {
            ++win.node_repairs;
            index.repair(ev.target);
            break;
          }
          case FaultEvent::Kind::kLinkFail: {
            ++win.link_fails;
            // Riders come back in ascending chain id; each either
            // re-routes in place (same host, new path) or is evicted and
            // re-placed like a crash victim.
            const std::vector<int> riders = net->fail_link(ev.target);
            for (const int id : riders) {
              const int host = index.chain_node(id);
              if (host < 0) continue;
              if (net->try_move(id, host)) {
                ++win.rerouted;
                ++timeline_.rerouted;
                continue;
              }
              index.remove_chain(id);
              net->release_chain(id);
              dirty.push_back(host);
              replace_chain(id, host, w, win);
            }
            break;
          }
          case FaultEvent::Kind::kLinkRepair: {
            ++win.link_repairs;
            net->repair_link(ev.target);
            break;
          }
        }
      }
    }

    // --- arrivals ----------------------------------------------------------
    // The initial chain set lands at w=0 through the same policy; dynamic
    // arrivals are Poisson with the scenario's RateProfile as the
    // fleet-level load envelope. A frozen fleet sees nothing after w=0.
    if (w == 0 || !static_fleet_) {
      c_ev_arrival.add();
      const telemetry::trace::Span arrival_span(
          "fleet/arrival_tick", static_cast<std::uint64_t>(w),
          &c_phase_arrival);
      if (w == 0) {
        for (int c = 0; c < spec_.num_chains; ++c) {
          if (!static_fleet_) {
            timeline_.chains[static_cast<std::size_t>(c)].departure_window =
                draw_holding();
          }
          place(c, w, win);
        }
        // Partitioning each static node once here raises the error for a
        // node whose chains all lack traffic before anything runs.
        for (int n = 0; static_deployment_ && n < num_nodes; ++n) {
          if (index.hosted(n).empty()) continue;
          (void)scenario::partition_node_env(spec_, comps, timeline_.flows,
                                             index.hosted(n), n);
        }
      }
      if (!static_fleet_) {
        const double mean = spec_.fleet.arrival_rate *
                            spec_.profile.multiplier(w * window_s);
        const std::uint64_t count = mean > 0.0 ? rng.poisson(mean) : 0;
        for (std::uint64_t a = 0; a < count; ++a) {
          ChainInstance chain;
          chain.id = next_id++;
          chain.nfs = nfvsim::standard_chain_nfs(chain.id);
          chain.cores = static_cast<double>(chain.nfs.size());
          chain.flows = traffic::make_eval_flows(
              spec_.fleet.flows_per_chain, /*num_chains=*/1,
              spec_.fleet.chain_offered_gbps, rng.next_u64());
          for (auto& flow : chain.flows) {
            flow.chain_index = chain.id;
            chain.offered_gbps += flow.mean_rate_gbps();
            chain.offered_pps += flow.mean_rate_pps;
          }
          chain.arrival_window = w;
          chain.departure_window = w + draw_holding();
          timeline_.chains.push_back(std::move(chain));
          ChainInstance& arrived = timeline_.chains.back();
          place(arrived.id, w, win);
          // A rejected chain never joins the flow pool — no node ever
          // hosts it, so its flows would be dead weight.
          if (arrived.first_node >= 0) {
            timeline_.flows.insert(timeline_.flows.end(),
                                   arrived.flows.begin(),
                                   arrived.flows.end());
          }
        }
      }
    }

    // --- consolidation -----------------------------------------------------
    // The policy may drain underutilized nodes so power gating can put
    // them to sleep. Each move costs downtime + energy.
    if (!static_fleet_ && spec_.fleet.migration) {
      c_ev_consolidate.add();
      const telemetry::trace::Span consolidate_span(
          "fleet/consolidate_tick", static_cast<std::uint64_t>(w),
          &c_phase_consolidate);
      const std::vector<Migration> plan =
          policy->consolidate_indexed(index, spec_.fleet.consolidate_below);
      c_mig_attempted.add(plan.size());
      for (const Migration& move : plan) {
        // Network veto: a consolidation move whose re-routed path has no
        // feasible capacity is skipped (try_move leaves the fabric
        // untouched on failure), not applied half-way.
        if (net != nullptr && !net->try_move(move.chain, move.to)) {
          ++win.net_blocked;
          ++timeline_.net_blocked;
          continue;
        }
        const ChainInstance& chain =
            timeline_.chains[static_cast<std::size_t>(move.chain)];
        index.remove_chain(move.chain);
        // The policies never wake a node to consolidate into, but a custom
        // policy could — account for it either way.
        activate(move.to, move.chain, w, win);
        index.place_chain(move.chain, move.to, chain.cores,
                          chain.offered_gbps);
        win.migrations.push_back(move);
        ++timeline_.migrations;
        win.charges.push_back({move.chain, spec_.fleet.migration_downtime_s,
                               spec_.fleet.migration_energy_j,
                               ChargeKind::kMigration});
        timeline_.migration_energy_j += spec_.fleet.migration_energy_j;
        timeline_.downtime_s += spec_.fleet.migration_downtime_s;
        dirty.push_back(move.from);
        dirty.push_back(move.to);
      }
    }

    // --- accounting --------------------------------------------------------
    c_ev_account.add();
    const telemetry::trace::Span account_span(
        "fleet/account_tick", static_cast<std::uint64_t>(w),
        &c_phase_account);
    // Restore the sorted-hosted-list discipline on perturbed nodes (arrival
    // appends keep lists sorted — ids grow monotonically — so only
    // migration receivers actually reorder).
    std::sort(dirty.begin(), dirty.end());
    dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
    for (const int n : dirty) index.sort_hosted(n);
    dirty.clear();

    // Occupancy and power accounting sweep every node in ascending order:
    // the standby-energy floating-point accumulation order is part of the
    // bit-identity contract, and every unoccupied node contributes draw
    // each window — there is nothing to skip.
    for (int n = 0; n < num_nodes; ++n) {
      // A crashed node is out of the fleet until repair: no standby draw,
      // no occupancy sample, no power-state advance — it only counts
      // toward the window's down-node tally.
      if (index.down(n)) {
        ++win.down_nodes;
        continue;
      }
      const std::size_t count = index.hosted(n).size();
      timeline_.occupancy.add(count);
      win.live_chains += static_cast<int>(count);

      const bool occupied = count != 0;
      auto& machine = power[static_cast<std::size_t>(n)];
      if (occupied) {
        ++win.active_nodes;
      } else if (machine.asleep()) {
        ++win.asleep_nodes;
      } else {
        ++win.idle_nodes;
      }
      win.standby_energy_j += machine.advance(occupied, window_s);
      // Mirror a just-gated node into the index so next window's placement
      // queries see it on the asleep list.
      if (machine.asleep() && !index.asleep(n)) index.sleep(n);
    }
    // Static idle nodes are billed as one product, the rounding their
    // numbers have always had (a per-node sum can differ in the last bit
    // from three idle nodes on).
    if (static_deployment_) {
      win.standby_energy_j = win.idle_nodes * spec_.node.p_idle_w * window_s;
    }
    if (net != nullptr) {
      // End-of-window fabric snapshot from the table's exact running
      // counters — no per-link sweep except the fixed-order energy sum.
      win.link_energy_j = net->window_link_energy_j(window_s);
      win.routed_chains = static_cast<int>(net->active_chains());
      win.latency_violations =
          static_cast<int>(net->active_latency_violations());
      win.path_latency_sum_ns = net->active_path_latency_ns();
      timeline_.link_energy_j += win.link_energy_j;
      timeline_.routed_chain_windows += win.routed_chains;
      timeline_.latency_violation_chain_windows += win.latency_violations;
      timeline_.path_latency_sum_ns += win.path_latency_sum_ns;
    }
    timeline_.standby_energy_j += win.standby_energy_j;
    if (sampler.active()) {
      double committed = 0.0;
      for (int n = 0; n < num_nodes; ++n) {
        if (!index.down(n)) committed += index.committed_cores(n);
      }
      const double capacity =
          static_cast<double>(num_nodes - win.down_nodes) * capacity_cores_;
      sampler.sample(w, win, committed, capacity, net);
    }
  }

  if (sampler.active()) timeline_.series = sampler.table();

  // Timeline-level tallies land once the builder finishes; the running
  // members are already exact, so snapshot them instead of double-
  // counting inside the loop.
  if (mc::enabled()) {
    mc::counter("fleet.arrivals").add(
        static_cast<std::uint64_t>(timeline_.arrivals));
    mc::counter("fleet.departures").add(
        static_cast<std::uint64_t>(timeline_.departures));
    mc::counter("fleet.rejected").add(
        static_cast<std::uint64_t>(timeline_.rejected));
    mc::counter("fleet.net_rejected").add(
        static_cast<std::uint64_t>(timeline_.net_rejected));
    mc::counter("fleet.migrations.applied").add(
        static_cast<std::uint64_t>(timeline_.migrations));
    mc::counter("fleet.migrations.net_blocked").add(
        static_cast<std::uint64_t>(timeline_.net_blocked));
    mc::counter("fleet.wakeups").add(
        static_cast<std::uint64_t>(timeline_.wakeups));
    mc::gauge("fleet.index.arena_bytes")
        .set(static_cast<double>(index.arena_bytes()));
    if (timeline_.fault_enabled) {
      mc::counter("fault.injected.node_crash")
          .add(static_cast<std::uint64_t>(timeline_.node_crashes));
      mc::counter("fault.injected.node_repair")
          .add(static_cast<std::uint64_t>(timeline_.node_repairs));
      mc::counter("fault.injected.link_fail")
          .add(static_cast<std::uint64_t>(timeline_.link_fails));
      mc::counter("fault.injected.link_repair")
          .add(static_cast<std::uint64_t>(timeline_.link_repairs));
      mc::counter("fault.injected.rack_outage")
          .add(static_cast<std::uint64_t>(timeline_.rack_outages));
      mc::counter("fault.replaced")
          .add(static_cast<std::uint64_t>(timeline_.replaced));
      mc::counter("fault.dropped")
          .add(static_cast<std::uint64_t>(timeline_.fault_dropped));
      mc::counter("fault.rerouted")
          .add(static_cast<std::uint64_t>(timeline_.rerouted));
    }
  }
}

scenario::ModelReport FleetOrchestrator::run_model(
    const scenario::SchedulerFactory& entry,
    telemetry::Recorder* recorder) {
  namespace mc = telemetry::metrics;
  // Interned so the span name outlives this call; one string per model.
  // An explicit Span (not the macro) so the run_model_ns timer keeps
  // accumulating for bench phase breakdowns even when the tracer is
  // compiled out.
  const telemetry::trace::Span model_span(
      telemetry::trace::intern("fleet/run_model:" + entry.name),
      &mc::counter("fleet.phase.run_model_ns"));
  auto& c_phase_measure = mc::counter("fleet.phase.measure_ns");
  auto& c_phase_train = mc::counter("fleet.phase.train_ns");
  const char* const train_span_name =
      telemetry::trace::intern("fleet/train:" + entry.name);
  auto& c_node_windows = mc::counter("fleet.node_windows");
  auto& c_rebuilds = mc::counter("fleet.env_rebuilds");
  scenario::ModelReport report;
  report.prefix = scenario::series_prefix(entry.name);

  const int num_nodes = spec_.num_nodes;
  const double window_s = spec_.window_s;
  const core::Sla sla = spec_.sla();
  // Series go straight into the caller's recorder under the model prefix.
  const auto record = [&](const char* name, double t, double value) {
    if (recorder != nullptr) recorder->record(report.prefix + name, t, value);
  };
  // Per-node series are a per-node-per-window artifact — prohibitive at
  // hyperscale, so they stop at 64 nodes (every paper-shaped fleet). A
  // one-node static deployment's would repeat its aggregate. Their names
  // are built once per model.
  const bool node_series = recorder != nullptr && num_nodes <= 64 &&
                           (!static_deployment_ || num_nodes > 1);
  std::vector<std::pair<std::string, std::string>> node_names;
  for (int n = 0; node_series && n < num_nodes; ++n) {
    node_names.emplace_back(
        report.prefix + format("node%d_throughput_gbps", n),
        report.prefix + format("node%d_energy_j", n));
  }

  std::vector<std::vector<std::string>> comps;
  comps.reserve(timeline_.chains.size());
  for (const ChainInstance& chain : timeline_.chains)
    comps.push_back(chain.nfs);

  // Each chain's flows as positions in the fleet flow pool, so a rebuild
  // hands partition_node_env only its members' flows instead of the whole
  // pool. Members' flows are merged back into ascending pool position —
  // the order a full scan visits them; the initial chains' flows are
  // interleaved, and per-flow traffic draws follow that order.
  std::vector<std::vector<std::size_t>> chain_flows(timeline_.chains.size());
  for (std::size_t i = 0; i < timeline_.flows.size(); ++i) {
    const auto c = static_cast<std::size_t>(timeline_.flows[i].chain_index);
    chain_flows.at(c).push_back(i);
  }
  const auto flows_of = [&](const std::vector<int>& members) {
    std::vector<std::size_t> positions;
    std::vector<std::size_t> merged;
    for (const int c : members) {
      const auto& own = chain_flows[static_cast<std::size_t>(c)];
      merged.clear();
      std::merge(positions.begin(), positions.end(), own.begin(), own.end(),
                 std::back_inserter(merged));
      positions.swap(merged);
    }
    std::vector<traffic::FlowSpec> flows;
    flows.reserve(positions.size());
    for (const std::size_t i : positions) flows.push_back(timeline_.flows[i]);
    return flows;
  };

  // A frozen one-node deployment runs exactly core::evaluate_scheduler:
  // the whole-deployment EnvConfig (flows resolved inside the environment
  // at the node evaluation seed), warmup, profile alignment, then one
  // NfController window per fleet window — same seeds, same loop, same
  // numbers, bit for bit.
  const bool degenerate =
      num_nodes == 1 && static_fleet_ && !spec_.fault.enabled &&
      timeline_.windows.front().rejected == 0;
  const auto env_config_of = [&](const std::vector<int>& members, int n) {
    return degenerate ? spec_.env_config()
                      : scenario::partition_node_env(
                            spec_, comps, flows_of(members), members, n);
  };

  // Window start times. A one-node static deployment stamps its windows as
  // core::evaluate_scheduler does, with a running sum of window lengths;
  // w * window_s can differ from that sum in the last bit.
  const bool summed_clock = static_deployment_ && num_nodes == 1;
  std::vector<double> times(static_cast<std::size_t>(horizon_));
  double elapsed_s = 0.0;
  for (int w = 0; w < horizon_; ++w, elapsed_s += window_s) {
    times[static_cast<std::size_t>(w)] =
        summed_clock ? elapsed_s : w * window_s;
  }

  // Trained policies are tied to the chain count (state/action dims), so
  // each node reuses its scheduler across epochs with the same shape:
  // one policy per (node, chain count), "train once, run many". The chain
  // count is the member count, which is what partition_node_env and a
  // degenerate deployment (every chain on its one node) both configure.
  std::map<std::pair<int, int>, std::unique_ptr<core::Scheduler>>
      schedulers;

  // --- pre-pass (serial) ---------------------------------------------------
  // One membership replay records each node's changes: every window at
  // which its hosted chain set differs from before (a dirty node whose
  // members came out unchanged keeps its runtime). It also makes every
  // (node, chain count) scheduler at its first use, in (window, node)
  // order on this thread: the order the [train] lines, training seeds and
  // make calls have always had. From here on the scheduler map is
  // read-only.
  std::vector<std::vector<MembershipChange>> changes(
      static_cast<std::size_t>(num_nodes));
  std::vector<int> member_pool;
  const auto members_of = [&](const MembershipChange& change) {
    const auto first =
        member_pool.begin() + static_cast<std::ptrdiff_t>(change.offset);
    return std::pair{first, first + static_cast<std::ptrdiff_t>(change.count)};
  };
  {
    // The membership walk is replay work; each make closes its span, so
    // fleet.phase.measure_ns and fleet.phase.train_ns stay disjoint parts
    // of run_model_ns.
    std::optional<telemetry::trace::Span> prepass_span;
    prepass_span.emplace("fleet/measure_prepass", &c_phase_measure);
    MembershipReplay replay(timeline_, num_nodes);
    for (int w = 0; w < horizon_; ++w) {
      for (const int n : replay.advance()) {
        const std::vector<int>& members = replay.members(n);
        auto& node_changes = changes[static_cast<std::size_t>(n)];
        const auto [first, last] = members_of(
            node_changes.empty() ? MembershipChange{} : node_changes.back());
        if (std::equal(members.begin(), members.end(), first, last)) continue;
        node_changes.push_back({w, member_pool.size(), members.size()});
        member_pool.insert(member_pool.end(), members.begin(), members.end());
        const std::pair<int, int> key{n, static_cast<int>(members.size())};
        if (members.empty() || schedulers.count(key) != 0) continue;
        const core::EnvConfig env_config = env_config_of(members, n);
        prepass_span.reset();
        {
          const telemetry::trace::Span train_span(train_span_name,
                                                  &c_phase_train);
          schedulers.emplace(key, entry.make(env_config, spec_.seed));
        }
        prepass_span.emplace("fleet/measure_prepass", &c_phase_measure);
      }
    }
  }

  // --- node-major replay, in blocks of windows -----------------------------
  // Given the membership changes, nodes are independent: each has its own
  // environment, controller, epoch-seeded traffic and (node, chain count)
  // scheduler. A block is one task per node walking the block's windows
  // and buffering compact outcomes; the serial reduction then reads them
  // in (window, ascending node) order, the serial loop's accumulation
  // order, so reports are bit-identical at any thread count.
  struct NodeRuntime {
    std::unique_ptr<core::NfvEnvironment> env;
    std::unique_ptr<core::NfController> controller;
    std::vector<int> chains;
    int epochs = 0;
    std::size_t next_change = 0;
  };
  std::vector<NodeRuntime> nodes(static_cast<std::size_t>(num_nodes));
  // Node-major: a task's writes stay on its own cache lines.
  std::vector<NodeOutcome> outcomes(static_cast<std::size_t>(num_nodes) *
                                    kBlockWindows);
  const auto slot = [&](int n, int w, int b0) -> NodeOutcome& {
    return outcomes[static_cast<std::size_t>(n) * kBlockWindows +
                    static_cast<std::size_t>(w - b0)];
  };
  std::optional<ReplayFailure> failure;
  std::mutex failure_mutex;
  const auto fail = [&](int w, ReplayFailure::Stage stage, int n) {
    ReplayFailure seen{w, stage, n, std::current_exception()};
    const std::lock_guard<std::mutex> lock(failure_mutex);
    if (!failure || seen.before(*failure)) failure = std::move(seen);
  };

  // Rebuilds node `n`'s runtime onto `change` at window `w`.
  const auto rebuild = [&](NodeRuntime& rt, int n, int w,
                           const MembershipChange& change) {
    rt.controller.reset();
    rt.env.reset();
    const auto [first, last] = members_of(change);
    rt.chains.assign(first, last);
    if (rt.chains.empty()) return;
    c_rebuilds.add();
    const core::EnvConfig env_config = env_config_of(rt.chains, n);
    const std::uint64_t env_seed =
        scenario::node_eval_seed(spec_, static_cast<std::size_t>(n)) +
        kEpochSeedStride * static_cast<std::uint64_t>(rt.epochs);
    ++rt.epochs;
    core::Scheduler& scheduler =
        *schedulers.at({n, static_cast<int>(rt.chains.size())});
    scheduler.reset();
    rt.env = std::make_unique<core::NfvEnvironment>(env_config, env_seed);
    rt.controller = std::make_unique<core::NfController>(*rt.env, scheduler);
    if (w == 0) {
      // Deployment settling, exactly evaluate_scheduler's preamble:
      // warmup windows unmeasured, then the rate-profile clock re-zeroed
      // so every model meets a non-steady envelope at the same measured
      // time. Mid-run epochs get no free settling — reconfiguration
      // transients are real and measured.
      if (entry.warmup > 0) (void)rt.controller->run(entry.warmup);
      rt.env->align_rate_profile();
    } else {
      // A node rebuilt mid-run starts a fresh environment whose clock
      // reads 0 — re-phase its rate-profile onto fleet time so the
      // whole fleet keeps tracking one absolute load shape (the same
      // clock the arrival envelope runs on).
      rt.env->align_rate_profile(times[static_cast<std::size_t>(w)]);
    }
  };

  // Walks node `n` through windows [b0, b1): rebuild on a membership
  // change, then advance one window if occupied. Stops at its failure.
  const auto replay_node = [&](int n, int b0, int b1) {
    NodeRuntime& rt = nodes[static_cast<std::size_t>(n)];
    const auto& node_changes = changes[static_cast<std::size_t>(n)];
    for (int w = b0; w < b1; ++w) {
      if (rt.next_change < node_changes.size() &&
          node_changes[rt.next_change].window == w) {
        try {
          rebuild(rt, n, w, node_changes[rt.next_change++]);
        } catch (...) {
          fail(w, ReplayFailure::kRebuild, n);
          return;
        }
      }
      if (rt.env == nullptr) continue;
      try {
        (void)rt.controller->run(1);
      } catch (...) {
        fail(w, ReplayFailure::kAdvance, n);
        return;
      }
      const auto& outcome = rt.env->last_outcome();
      slot(n, w, b0) = {outcome.throughput_gbps, outcome.energy_j,
                        outcome.offered_pps,     outcome.drop_fraction,
                        outcome.efficiency,      outcome.sla_satisfied};
    }
  };

  core::EvalResult& result = report.result;
  result.scheduler = entry.name;
  result.windows = horizon_;

  // Threads pay off only on fleets wide enough to fill a block, and never
  // inside a pool task: campaign cells already hold the cores.
  const bool parallel = num_nodes >= kParallelMinNodes &&
                        ThreadPool::current_worker() < 0 &&
                        ThreadPool::hardware_threads() > 1;
  // The reduction's own replay: each window's occupied nodes, ascending.
  MembershipReplay replay(timeline_, num_nodes);
  for (int b0 = 0; b0 < horizon_; b0 += kBlockWindows) {
    const int b1 = std::min(b0 + kBlockWindows, horizon_);
    const telemetry::trace::Span block_span(
        "fleet/measure_block", static_cast<std::uint64_t>(b0),
        &c_phase_measure);
    const auto replay_block = [&](std::size_t n) {
      replay_node(static_cast<int>(n), b0, b1);
    };
    if (parallel) {
      replay_pool().run_shared(static_cast<std::size_t>(num_nodes),
                               replay_block);
    } else {
      for (int n = 0; n < num_nodes; ++n)
        replay_block(static_cast<std::size_t>(n));
    }

    // Windows before a failure reduce first: the serial loop had recorded
    // them by the time the failure surfaced.
    const int end = failure ? failure->window : b1;
    for (int w = b0; w < end; ++w) {
      (void)replay.advance();
      const FleetTimeline::Window& win =
          timeline_.windows[static_cast<std::size_t>(w)];
      const double t = times[static_cast<std::size_t>(w)];

      // Sum the occupied nodes in ascending node order (the replay's
      // occupied list is sorted — the accumulation order below is
      // bit-identity-relevant).
      double gbps = 0.0;
      double energy = win.standby_energy_j + win.link_energy_j;
      double offered_pps = 0.0;
      double drop_weighted = 0.0;
      int active = 0;
      const NodeOutcome* solo = nullptr;
      for (const int n : replay.occupied()) {
        const NodeOutcome& outcome = slot(n, w, b0);
        ++active;
        solo = &outcome;
        gbps += outcome.throughput_gbps;
        energy += outcome.energy_j;
        offered_pps += outcome.offered_pps;
        // Drops are a fraction of *offered* load: a node that drops 90% of
        // a big offered stream must dominate the fleet figure, not vanish
        // because it delivered little.
        drop_weighted += outcome.drop_fraction * outcome.offered_pps;
        if (node_series) {
          const auto& [gbps_name, energy_name] =
              node_names[static_cast<std::size_t>(n)];
          recorder->record(gbps_name, t, outcome.throughput_gbps);
          recorder->record(energy_name, t, outcome.energy_j);
        }
      }
      c_node_windows.add(static_cast<std::uint64_t>(active));

      // Migration downtime and wake latency: the affected chain's traffic
      // is lost for `downtime_s` of the window (counted as dropped), and
      // the transfer/boot energy lands on the fleet bill.
      double lost_gbps = 0.0;
      double lost_pps = 0.0;
      double charge_energy_j = 0.0;
      for (const DowntimeCharge& charge : win.charges) {
        const ChainInstance& chain =
            timeline_.chains[static_cast<std::size_t>(charge.chain)];
        const double fraction =
            std::min(charge.downtime_s, window_s) / window_s;
        lost_gbps += chain.offered_gbps * fraction;
        lost_pps += chain.offered_pps * fraction;
        charge_energy_j += charge.energy_j;
      }

      double w_gbps;
      double w_energy;
      double w_efficiency;
      double w_drop;
      double w_sla;
      if (active == 1 && win.standby_energy_j == 0.0 && win.charges.empty() &&
          !spec_.topology.enabled && !spec_.fault.enabled) {
        // One node, no fleet overheads: use its window outcome verbatim —
        // this is the branch that keeps the single-node degeneration
        // bit-identical (no re-derivation through fleet formulas).
        w_gbps = solo->throughput_gbps;
        w_energy = solo->energy_j;
        w_efficiency = solo->efficiency;
        w_drop = solo->drop_fraction;
        w_sla = solo->sla_satisfied ? 1.0 : 0.0;
      } else {
        w_gbps = std::max(0.0, gbps - lost_gbps);
        w_energy = energy + charge_energy_j;
        w_efficiency = core::Sla::efficiency(w_gbps, w_energy);
        const double dropped_pps = drop_weighted + lost_pps;
        w_drop = offered_pps > 0.0
                     ? std::min(1.0, dropped_pps / offered_pps)
                     : 0.0;
        w_sla = sla.satisfied(w_gbps, w_energy) ? 1.0 : 0.0;
      }
      // The latency SLA is conjunctive with the scenario SLA: any routed
      // chain over budget this window fails the window.
      if (spec_.topology.enabled && spec_.latency_sla_us > 0.0 &&
          win.latency_violations > 0) {
        w_sla = 0.0;
      }

      result.mean_gbps += w_gbps;
      result.mean_energy_j += w_energy;
      result.mean_power_w += w_energy / window_s;
      result.mean_efficiency += w_efficiency;
      result.sla_satisfaction += w_sla;
      result.drop_fraction += w_drop;

      record("throughput_gbps", t, w_gbps);
      record("energy_j", t, w_energy);
      record("power_w", t, w_energy / window_s);
      record("efficiency", t, w_efficiency);
      record("drop_fraction", t, w_drop);
      record("offered_pps", t, offered_pps);
      if (!static_deployment_) {
        record("active_nodes", t, win.active_nodes);
        record("asleep_nodes", t, win.asleep_nodes);
        record("live_chains", t, win.live_chains);
        record("arrivals", t, static_cast<double>(win.arrivals.size()));
        record("departures", t, static_cast<double>(win.departures.size()));
        record("migrations", t, static_cast<double>(win.migrations.size()));
        record("rejected", t, win.rejected);
      }
      if (spec_.topology.enabled) {
        record("link_energy_j", t, win.link_energy_j);
        record("path_latency_us", t,
               win.routed_chains > 0
                   ? static_cast<double>(win.path_latency_sum_ns) /
                         (1e3 * win.routed_chains)
                   : 0.0);
        record("latency_violations", t, win.latency_violations);
        record("net_rejected", t, win.net_rejected);
      }
      if (spec_.fault.enabled) {
        record("down_nodes", t, win.down_nodes);
        record("node_crashes", t, win.node_crashes);
        record("fault_replaced", t,
               static_cast<double>(win.replacements.size()));
        record("fault_dropped", t,
               static_cast<double>(win.fault_dropped.size()));
        record("fault_rerouted", t, win.rerouted);
      }
    }
    if (failure) std::rethrow_exception(failure->error);
  }

  const auto n = static_cast<double>(horizon_);
  result.mean_gbps /= n;
  result.mean_energy_j /= n;
  result.mean_power_w /= n;
  result.mean_efficiency /= n;
  result.sla_satisfaction /= n;
  result.drop_fraction /= n;
  return report;
}

FleetReport FleetOrchestrator::run(
    const std::vector<scenario::SchedulerFactory>& roster) {
  FleetReport fleet;
  static_cast<FleetTotals&>(fleet) = timeline_;
  fleet.report.scenario = spec_.name;
  fleet.report.nodes = spec_.num_nodes;
  for (const auto& entry : roster)
    fleet.report.models.push_back(run_model(entry, &fleet.report.series));

  fleet.occupancy_fractions = timeline_.occupancy.fractions();
  for (const FleetTimeline::Window& win : timeline_.windows) {
    fleet.mean_active_nodes += win.active_nodes;
    fleet.mean_asleep_nodes += win.asleep_nodes;
    fleet.mean_live_chains += win.live_chains;
    fleet.mean_down_nodes += win.down_nodes;
  }
  const auto n = static_cast<double>(timeline_.windows.size());
  fleet.mean_active_nodes /= n;
  fleet.mean_asleep_nodes /= n;
  fleet.mean_live_chains /= n;
  fleet.mean_down_nodes /= n;

  if (timeline_.topology_enabled) {
    fleet.topology_preset = spec_.topology.preset;
    fleet.topology_routing = spec_.topology.routing;
    fleet.latency_budget_us = spec_.latency_sla_us;
    if (timeline_.routed_chain_windows > 0) {
      fleet.mean_path_latency_us =
          static_cast<double>(timeline_.path_latency_sum_ns) /
          (1e3 * static_cast<double>(timeline_.routed_chain_windows));
      if (spec_.latency_sla_us > 0.0) {
        fleet.latency_sla_satisfaction =
            1.0 -
            static_cast<double>(timeline_.latency_violation_chain_windows) /
                static_cast<double>(timeline_.routed_chain_windows);
      }
    }
  }
  return fleet;
}

std::string FleetReport::fleet_summary() const {
  std::string out;
  out += format(
      "fleet: %d arrival(s) (%d rejected), %d departure(s), %d"
      " migration(s), %d wake-up(s)\n",
      arrivals, rejected, departures, migrations, wakeups);
  out += format(
      "fleet: mean %.2f active / %.2f asleep node(s), %.2f live chain(s)\n",
      mean_active_nodes, mean_asleep_nodes, mean_live_chains);
  out += format(
      "fleet: standby energy %.0f J, wake %.0f J, migration %.0f J\n",
      standby_energy_j, wake_energy_j, migration_energy_j);
  out += "fleet: node occupancy";
  for (std::size_t k = 0; k < occupancy_fractions.size(); ++k)
    out += format(" %zu:%.0f%%", k, occupancy_fractions[k] * 100.0);
  out += "\n";
  if (topology_enabled) {
    out += format(
        "fleet: topology %s/%s, %d switch(es), %d link(s), link energy"
        " %.0f J\n",
        topology_preset.c_str(), topology_routing.c_str(), topology_switches,
        topology_links, link_energy_j);
    out += format(
        "fleet: net %d rejected, %d blocked move(s), mean path latency"
        " %.2f us",
        net_rejected, net_blocked, mean_path_latency_us);
    if (latency_budget_us > 0.0) {
      out += format(", latency SLA (%.0f us) %.0f%%", latency_budget_us,
                    latency_sla_satisfaction * 100.0);
    }
    out += "\n";
  }
  if (fault_enabled) {
    out += format(
        "fleet: faults %d crash(es) (%d rack outage(s)), %d link fail(s),"
        " %d storm window(s)\n",
        node_crashes, rack_outages, link_fails, storm_windows);
    out += format(
        "fleet: recovery %d replaced, %d dropped, %d rerouted, replace"
        " energy %.0f J, mean %.2f down node(s)\n",
        replaced, fault_dropped, rerouted, replace_energy_j,
        mean_down_nodes);
  }
  return out;
}

}  // namespace greennfv::orchestrator
