#include "tests/support/fleet_reference.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "common/rng.hpp"
#include "common/string_util.hpp"
#include "nfvsim/chain.hpp"
#include "orchestrator/fault.hpp"
#include "orchestrator/fleet_series.hpp"
#include "topology/path_table.hpp"
#include "traffic/generator.hpp"

// This file intentionally mirrors the pre-refactor build_timeline line
// for line (same RNG draw order, same floating-point accumulation order,
// same tie-breaks). Do not "clean it up" — its value is being the frozen
// reference the indexed engine is proven bit-identical against.

namespace greennfv::orchestrator {

namespace {

// Keep in sync with fleet.cpp (the constants define the RNG streams both
// engines must share).
constexpr std::uint64_t kTimelineSeedSalt = 0xF1EE7C0FFEEull;

}  // namespace

FleetTimeline build_reference_timeline(const scenario::ScenarioSpec& spec,
                                       const ReferencePolicy* policy_override) {
  if (!spec.fleet.enabled) {
    throw std::invalid_argument(
        "orchestrator: reference timeline needs fleet.enabled");
  }
  const int horizon = spec.fleet.horizon_windows > 0
                          ? spec.fleet.horizon_windows
                          : spec.eval_windows;
  const bool static_fleet = spec.fleet.arrival_rate == 0.0;
  const double capacity_cores =
      static_cast<double>(spec.node.total_cores) - spec.node.controller_cores;

  FleetTimeline timeline;
  timeline.num_nodes = spec.num_nodes;

  const int num_nodes = spec.num_nodes;
  const double window_s = spec.window_s;
  Rng rng(spec.seed ^ kTimelineSeedSalt);
  const std::unique_ptr<ReferencePolicy> owned_policy =
      policy_override == nullptr ? make_reference_policy(spec.fleet.policy)
                                 : nullptr;
  const ReferencePolicy* policy =
      policy_override != nullptr ? policy_override : owned_policy.get();
  const PowerStateConfig ps_config{
      spec.node.p_idle_w, spec.node.p_sleep_w, spec.node.wake_latency_s,
      spec.fleet.sleep_after_windows, spec.fleet.power_gating};
  std::vector<NodePowerStateMachine> power(
      static_cast<std::size_t>(num_nodes), NodePowerStateMachine(ps_config));
  std::vector<std::vector<int>> hosted(static_cast<std::size_t>(num_nodes));
  std::vector<double> committed(static_cast<std::size_t>(num_nodes), 0.0);

  // PR 10 addition, read-only: the per-window health sampler. Inert
  // unless telemetry::series::enabled(); samples after step 4 closes the
  // window, so it cannot perturb the frozen accounting above/below.
  FleetSeriesSampler sampler(horizon, window_s, /*armed=*/true);

  // The network fabric (topology runs only). PathTable's integer kbps/ns
  // accounting makes its state a pure function of the active chain set,
  // so this engine's node-order departure releases and the indexed
  // engine's id-order releases land on the identical fabric state.
  std::unique_ptr<topology::Topology> topo;
  std::unique_ptr<topology::PathTable> net_owned;
  if (spec.topology.enabled) {
    topo = std::make_unique<topology::Topology>(
        topology::Topology::build(spec.topology, num_nodes));
    net_owned = std::make_unique<topology::PathTable>(
        *topo, topology::routing_from_name(spec.topology.routing),
        topology::ns_from_us(spec.latency_sla_us));
    timeline.topology_enabled = true;
    timeline.topology_switches = topo->num_switches();
    timeline.topology_links = topo->num_links();
  }
  topology::PathTable* const net = net_owned.get();

  // The fault schedule: the identical pure function of (spec, horizon,
  // fleet shape) the indexed engine expands — both engines consume the
  // same events in the same order.
  const FaultSchedule faults = build_fault_schedule(
      spec, horizon, num_nodes, net != nullptr ? topo->num_links() : 0);
  if (spec.fault.enabled) {
    timeline.fault_enabled = true;
    timeline.node_crashes = faults.node_crashes;
    timeline.node_repairs = faults.node_repairs;
    timeline.link_fails = faults.link_fails;
    timeline.link_repairs = faults.link_repairs;
    timeline.rack_outages = faults.rack_outages;
    timeline.storm_windows = faults.storm_windows;
  }
  const auto storm_scale = [&](int w) {
    return faults.storm_active(w) ? spec.fault.wake_storm_factor : 1.0;
  };
  std::vector<char> down(static_cast<std::size_t>(num_nodes), 0);

  // --- the initial chain set (the scenario's static topology) -------------
  const auto comps = scenario::resolved_chain_nfs(spec);
  timeline.flows = scenario::resolved_flows(spec);
  for (int c = 0; c < spec.num_chains; ++c) {
    ChainInstance chain;
    chain.id = c;
    chain.nfs = comps[static_cast<std::size_t>(c)];
    // Algorithm 1 line 1 allocates one core per NF.
    chain.cores = static_cast<double>(chain.nfs.size());
    for (const auto& flow : timeline.flows) {
      if (flow.chain_index != c) continue;
      chain.flows.push_back(flow);
      chain.offered_gbps += flow.mean_rate_gbps();
      chain.offered_pps += flow.mean_rate_pps;
    }
    if (chain.flows.empty()) {
      throw std::invalid_argument(format(
          "orchestrator: initial chain %d receives no flows (fleet runs"
          " need traffic on every initial chain)",
          c));
    }
    timeline.chains.push_back(std::move(chain));
  }

  const auto fleet_view = [&]() {
    FleetView view;
    for (int n = 0; n < num_nodes; ++n) {
      NodeView node;
      // Down nodes present at capacity 0 and never asleep — exactly what
      // view_of reports for a FleetIndex — so every fits() gate masks them
      // and the scans see the candidate set the index policies see.
      node.down = down[static_cast<std::size_t>(n)] != 0;
      node.capacity_cores = node.down ? 0.0 : capacity_cores;
      node.committed_cores = committed[static_cast<std::size_t>(n)];
      node.asleep =
          !node.down && power[static_cast<std::size_t>(n)].asleep();
      for (const int id : hosted[static_cast<std::size_t>(n)]) {
        const ChainInstance& chain =
            timeline.chains[static_cast<std::size_t>(id)];
        node.chains.push_back({id, chain.cores});
      }
      view.nodes.push_back(std::move(node));
    }
    return view;
  };

  // Minimum one window of residency; exponential holding beyond that.
  const auto draw_holding = [&]() {
    return 1 + static_cast<int>(
                   rng.exponential(1.0 / spec.fleet.mean_holding_windows));
  };

  const auto place = [&](int id, int w, FleetTimeline::Window& win) {
    ChainInstance& chain = timeline.chains[static_cast<std::size_t>(id)];
    const ArrivalRequest request{chain.cores, chain.offered_gbps};
    const int node = policy->choose(fleet_view(), request, net);
    if (node < 0) {
      ++win.rejected;
      ++timeline.rejected;
      chain.first_node = -1;
      return;
    }
    // Network admission before anything commits: a placement whose path
    // would oversubscribe a link is rejected here, and the node is never
    // spuriously woken for it.
    if (net != nullptr && !net->commit_chain(id, node, chain.offered_gbps)) {
      ++win.rejected;
      ++timeline.rejected;
      ++win.net_rejected;
      ++timeline.net_rejected;
      chain.first_node = -1;
      return;
    }
    if (net != nullptr) {
      chain.path_hops = net->chain_hops(id);
      chain.path_latency_ns = net->chain_latency_ns(id);
    }
    const auto charge = power[static_cast<std::size_t>(node)].activate();
    if (charge.woke) {
      const double scale = storm_scale(w);
      ++timeline.wakeups;
      win.charges.push_back({id, charge.downtime_s * scale,
                             charge.energy_j * scale, ChargeKind::kWake});
      timeline.wake_energy_j += charge.energy_j * scale;
      timeline.downtime_s += charge.downtime_s * scale;
    }
    hosted[static_cast<std::size_t>(node)].push_back(id);
    committed[static_cast<std::size_t>(node)] += chain.cores;
    win.arrivals.push_back(id);
    ++timeline.arrivals;
    chain.first_node = node;
  };

  // Recovery re-placement for fault-evicted chains — mirrors the event
  // engine's replace_chain exactly (same policy seam, same charges, same
  // order of record pushes).
  const auto replace_chain = [&](int id, int from, int w,
                                 FleetTimeline::Window& win) {
    const ChainInstance& chain =
        timeline.chains[static_cast<std::size_t>(id)];
    const ArrivalRequest request{chain.cores, chain.offered_gbps};
    const int node = policy->choose(fleet_view(), request, net);
    bool placed = node >= 0;
    if (placed && net != nullptr &&
        !net->commit_chain(id, node, chain.offered_gbps)) {
      placed = false;
    }
    if (!placed) {
      win.fault_dropped.push_back(id);
      ++timeline.fault_dropped;
      win.charges.push_back({id, window_s, 0.0, ChargeKind::kDrop});
      timeline.downtime_s += window_s;
      return;
    }
    const auto charge = power[static_cast<std::size_t>(node)].activate();
    if (charge.woke) {
      const double scale = storm_scale(w);
      ++timeline.wakeups;
      win.charges.push_back({id, charge.downtime_s * scale,
                             charge.energy_j * scale, ChargeKind::kWake});
      timeline.wake_energy_j += charge.energy_j * scale;
      timeline.downtime_s += charge.downtime_s * scale;
    }
    hosted[static_cast<std::size_t>(node)].push_back(id);
    committed[static_cast<std::size_t>(node)] += chain.cores;
    win.replacements.push_back({id, from, node});
    ++timeline.replaced;
    win.charges.push_back({id, spec.fault.replace_downtime_s,
                           spec.fault.replace_energy_j,
                           ChargeKind::kReplace});
    timeline.replace_energy_j += spec.fault.replace_energy_j;
    timeline.downtime_s += spec.fault.replace_downtime_s;
  };

  // Host lookup by scan — this engine keeps no chain->node map; the scan
  // is deterministic and only the fault step needs it.
  const auto find_host = [&](int id) {
    for (int n = 0; n < num_nodes; ++n) {
      const auto& chains_here = hosted[static_cast<std::size_t>(n)];
      if (std::find(chains_here.begin(), chains_here.end(), id) !=
          chains_here.end()) {
        return n;
      }
    }
    return -1;
  };
  const auto evict = [&](int id, int node) {
    auto& chains_here = hosted[static_cast<std::size_t>(node)];
    chains_here.erase(std::find(chains_here.begin(), chains_here.end(), id));
    committed[static_cast<std::size_t>(node)] -=
        timeline.chains[static_cast<std::size_t>(id)].cores;
  };

  timeline.windows.resize(static_cast<std::size_t>(horizon));
  int next_id = spec.num_chains;

  for (int w = 0; w < horizon; ++w) {
    FleetTimeline::Window& win =
        timeline.windows[static_cast<std::size_t>(w)];

    // 1. Departures: chains whose holding time expired leave at the
    //    window edge (static fleets never depart).
    if (!static_fleet) {
      for (int n = 0; n < num_nodes; ++n) {
        auto& chains_here = hosted[static_cast<std::size_t>(n)];
        for (std::size_t i = 0; i < chains_here.size();) {
          const int id = chains_here[i];
          const ChainInstance& chain =
              timeline.chains[static_cast<std::size_t>(id)];
          if (chain.departure_window == w) {
            win.departures.push_back(id);
            committed[static_cast<std::size_t>(n)] -= chain.cores;
            if (net != nullptr) net->release_chain(id);
            chains_here.erase(chains_here.begin() +
                              static_cast<std::ptrdiff_t>(i));
          } else {
            ++i;
          }
        }
      }
      std::sort(win.departures.begin(), win.departures.end());
      timeline.departures += static_cast<int>(win.departures.size());
    }

    // 1.5. Faults: inject this window's scheduled events and recover —
    //      the same order the indexed engine's window loop applies them,
    //      after departures and before arrivals.
    for (const FaultEvent& ev :
         faults.windows[static_cast<std::size_t>(w)]) {
      switch (ev.kind) {
        case FaultEvent::Kind::kNodeCrash: {
          const int node = ev.target;
          ++win.node_crashes;
          std::vector<int> victims = hosted[static_cast<std::size_t>(node)];
          std::sort(victims.begin(), victims.end());
          for (const int id : victims) {
            evict(id, node);
            if (net != nullptr) net->release_chain(id);
          }
          down[static_cast<std::size_t>(node)] = 1;
          power[static_cast<std::size_t>(node)] =
              NodePowerStateMachine(ps_config);
          for (const int id : victims) replace_chain(id, node, w, win);
          break;
        }
        case FaultEvent::Kind::kNodeRepair: {
          ++win.node_repairs;
          down[static_cast<std::size_t>(ev.target)] = 0;
          break;
        }
        case FaultEvent::Kind::kLinkFail: {
          ++win.link_fails;
          const std::vector<int> riders = net->fail_link(ev.target);
          for (const int id : riders) {
            const int host = find_host(id);
            if (host < 0) continue;
            if (net->try_move(id, host)) {
              ++win.rerouted;
              ++timeline.rerouted;
              continue;
            }
            evict(id, host);
            net->release_chain(id);
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

    // 2. Arrivals. The initial chain set lands at w=0 through the same
    //    policy; dynamic arrivals are Poisson with the scenario's
    //    RateProfile as the fleet-level load envelope.
    if (w == 0) {
      for (int c = 0; c < spec.num_chains; ++c) {
        if (!static_fleet) {
          timeline.chains[static_cast<std::size_t>(c)].departure_window =
              draw_holding();
        }
        place(c, w, win);
      }
    }
    if (!static_fleet) {
      const double mean =
          spec.fleet.arrival_rate * spec.profile.multiplier(w * window_s);
      const std::uint64_t count = mean > 0.0 ? rng.poisson(mean) : 0;
      for (std::uint64_t a = 0; a < count; ++a) {
        ChainInstance chain;
        chain.id = next_id++;
        chain.nfs = nfvsim::standard_chain_nfs(chain.id);
        chain.cores = static_cast<double>(chain.nfs.size());
        chain.flows = traffic::make_eval_flows(
            spec.fleet.flows_per_chain, /*num_chains=*/1,
            spec.fleet.chain_offered_gbps, rng.next_u64());
        for (auto& flow : chain.flows) {
          flow.chain_index = chain.id;
          chain.offered_gbps += flow.mean_rate_gbps();
          chain.offered_pps += flow.mean_rate_pps;
        }
        chain.arrival_window = w;
        chain.departure_window = w + draw_holding();
        timeline.chains.push_back(std::move(chain));
        ChainInstance& arrived = timeline.chains.back();
        place(arrived.id, w, win);
        // A rejected chain never joins the flow pool — its flows would
        // otherwise be dead weight re-scanned on every node-env rebuild.
        if (arrived.first_node >= 0) {
          timeline.flows.insert(timeline.flows.end(), arrived.flows.begin(),
                                arrived.flows.end());
        }
      }
    }

    // 3. Consolidation: the policy may drain underutilized nodes so power
    //    gating can put them to sleep. Each move costs downtime + energy.
    if (!static_fleet && spec.fleet.migration) {
      const std::vector<Migration> plan =
          policy->consolidate(fleet_view(), spec.fleet.consolidate_below);
      for (const Migration& move : plan) {
        // Network veto: a consolidation move whose re-routed path has no
        // feasible capacity is skipped (try_move leaves the fabric
        // untouched on failure), not applied half-way.
        if (net != nullptr && !net->try_move(move.chain, move.to)) {
          ++win.net_blocked;
          ++timeline.net_blocked;
          continue;
        }
        const ChainInstance& chain =
            timeline.chains[static_cast<std::size_t>(move.chain)];
        auto& from = hosted[static_cast<std::size_t>(move.from)];
        from.erase(std::find(from.begin(), from.end(), move.chain));
        committed[static_cast<std::size_t>(move.from)] -= chain.cores;
        const auto charge =
            power[static_cast<std::size_t>(move.to)].activate();
        if (charge.woke) {
          // The policies never wake a node to consolidate into, but a
          // custom policy could — account for it either way.
          const double scale = storm_scale(w);
          ++timeline.wakeups;
          win.charges.push_back({move.chain, charge.downtime_s * scale,
                                 charge.energy_j * scale,
                                 ChargeKind::kWake});
          timeline.wake_energy_j += charge.energy_j * scale;
          timeline.downtime_s += charge.downtime_s * scale;
        }
        hosted[static_cast<std::size_t>(move.to)].push_back(move.chain);
        committed[static_cast<std::size_t>(move.to)] += chain.cores;
        win.migrations.push_back(move);
        ++timeline.migrations;
        win.charges.push_back({move.chain, spec.fleet.migration_downtime_s,
                               spec.fleet.migration_energy_j,
                               ChargeKind::kMigration});
        timeline.migration_energy_j += spec.fleet.migration_energy_j;
        timeline.downtime_s += spec.fleet.migration_downtime_s;
      }
    }

    // 4. Occupancy and power-state accounting, in node order (the
    //    floating-point standby accumulation order is part of the
    //    contract the indexed engine reproduces).
    for (int n = 0; n < num_nodes; ++n) {
      // A crashed node is out of the fleet until repair: no standby draw,
      // no occupancy sample — only the down-node tally.
      if (down[static_cast<std::size_t>(n)] != 0) {
        ++win.down_nodes;
        continue;
      }
      auto& chains_here = hosted[static_cast<std::size_t>(n)];
      std::sort(chains_here.begin(), chains_here.end());
      timeline.occupancy.add(chains_here.size());
      win.live_chains += static_cast<int>(chains_here.size());

      const bool occupied = !chains_here.empty();
      if (occupied) {
        ++win.active_nodes;
      } else if (power[static_cast<std::size_t>(n)].asleep()) {
        ++win.asleep_nodes;
      } else {
        ++win.idle_nodes;
      }
      win.standby_energy_j +=
          power[static_cast<std::size_t>(n)].advance(occupied, window_s);
    }
    if (net != nullptr) {
      win.link_energy_j = net->window_link_energy_j(window_s);
      win.routed_chains = static_cast<int>(net->active_chains());
      win.latency_violations =
          static_cast<int>(net->active_latency_violations());
      win.path_latency_sum_ns = net->active_path_latency_ns();
      timeline.link_energy_j += win.link_energy_j;
      timeline.routed_chain_windows += win.routed_chains;
      timeline.latency_violation_chain_windows += win.latency_violations;
      timeline.path_latency_sum_ns += win.path_latency_sum_ns;
    }
    timeline.standby_energy_j += win.standby_energy_j;
    if (sampler.active()) {
      double committed_total = 0.0;
      for (int n = 0; n < num_nodes; ++n) {
        if (down[static_cast<std::size_t>(n)] == 0) {
          committed_total += committed[static_cast<std::size_t>(n)];
        }
      }
      const double capacity =
          static_cast<double>(num_nodes - win.down_nodes) * capacity_cores;
      sampler.sample(w, win, committed_total, capacity, net);
    }
  }
  if (sampler.active()) timeline.series = sampler.table();
  return timeline;
}

}  // namespace greennfv::orchestrator
