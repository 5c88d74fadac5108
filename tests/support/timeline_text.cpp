#include "tests/support/timeline_text.hpp"

#include "common/string_util.hpp"
#include "orchestrator/timeline_io.hpp"

namespace greennfv::orchestrator {

namespace {

std::string join_ints(const std::vector<int>& ids) {
  std::string text;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i) text += ',';
    text += std::to_string(ids[i]);
  }
  return text;
}

void append_chain(std::string& text, const ChainInstance& chain) {
  std::string nfs;
  for (std::size_t i = 0; i < chain.nfs.size(); ++i) {
    if (i) nfs += '+';
    nfs += chain.nfs[i];
  }
  text += format("chain %d: nfs=%s cores=%s arrival=%d departure=%d"
                 " first_node=%d offered_gbps=%s offered_pps=%s\n",
                 chain.id, nfs.c_str(), double_bits(chain.cores).c_str(),
                 chain.arrival_window, chain.departure_window,
                 chain.first_node, double_bits(chain.offered_gbps).c_str(),
                 double_bits(chain.offered_pps).c_str());
  // Routed chains only (path_hops stays -1 without a topology), so
  // pre-topology timelines serialize byte-identically.
  if (chain.path_hops >= 0) {
    text += format("  path: hops=%d latency_ns=%lld\n", chain.path_hops,
                   static_cast<long long>(chain.path_latency_ns));
  }
  for (const auto& flow : chain.flows) {
    text += format(
        "  flow %d: proto=%d arrival=%d rate_pps=%s pkt=%u p2m=%s"
        " dwell=%s chain_index=%d\n",
        flow.id, static_cast<int>(flow.proto),
        static_cast<int>(flow.arrival),
        double_bits(flow.mean_rate_pps).c_str(), flow.pkt_bytes,
        double_bits(flow.peak_to_mean).c_str(),
        double_bits(flow.dwell_s).c_str(), flow.chain_index);
  }
}

const char* charge_kind_name(ChargeKind kind) {
  switch (kind) {
    case ChargeKind::kWake: return "wake";
    case ChargeKind::kMigration: return "migration";
    case ChargeKind::kReplace: return "replace";
    case ChargeKind::kDrop: return "drop";
  }
  return "wake";
}

}  // namespace

std::string timeline_to_text(const FleetTimeline& timeline, int num_nodes) {
  std::string text = "# greennfv fleet timeline v1\n";
  text += format("nodes=%d windows=%d chains=%d flows=%d\n", num_nodes,
                 static_cast<int>(timeline.windows.size()),
                 static_cast<int>(timeline.chains.size()),
                 static_cast<int>(timeline.flows.size()));
  text += format("arrivals=%d departures=%d rejected=%d migrations=%d"
                 " wakeups=%d\n",
                 timeline.arrivals, timeline.departures, timeline.rejected,
                 timeline.migrations, timeline.wakeups);
  text += format("standby_energy_j=%s\n",
                 double_bits(timeline.standby_energy_j).c_str());
  text += format("wake_energy_j=%s\n",
                 double_bits(timeline.wake_energy_j).c_str());
  text += format("migration_energy_j=%s\n",
                 double_bits(timeline.migration_energy_j).c_str());
  text += format("downtime_s=%s\n", double_bits(timeline.downtime_s).c_str());
  if (timeline.topology_enabled) {
    text += format(
        "topology switches=%d links=%d net_rejected=%d net_blocked=%d\n",
        timeline.topology_switches, timeline.topology_links,
        timeline.net_rejected, timeline.net_blocked);
    text += format(
        "topology routed_cw=%lld violation_cw=%lld path_latency_ns=%lld"
        " link_energy_j=%s\n",
        static_cast<long long>(timeline.routed_chain_windows),
        static_cast<long long>(timeline.latency_violation_chain_windows),
        static_cast<long long>(timeline.path_latency_sum_ns),
        double_bits(timeline.link_energy_j).c_str());
  }
  if (timeline.fault_enabled) {
    text += format(
        "fault crashes=%d repairs=%d link_fails=%d link_repairs=%d"
        " rack_outages=%d storm_windows=%d\n",
        timeline.node_crashes, timeline.node_repairs, timeline.link_fails,
        timeline.link_repairs, timeline.rack_outages,
        timeline.storm_windows);
    text += format(
        "fault replaced=%d dropped=%d rerouted=%d replace_energy_j=%s\n",
        timeline.replaced, timeline.fault_dropped, timeline.rerouted,
        double_bits(timeline.replace_energy_j).c_str());
  }
  text += format("occupancy_total=%llu counts=",
                 static_cast<unsigned long long>(timeline.occupancy.total()));
  const auto& counts = timeline.occupancy.counts();
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (i) text += ',';
    text += std::to_string(counts[i]);
  }
  text += '\n';
  for (const auto& chain : timeline.chains) append_chain(text, chain);

  MembershipReplay replay(timeline, num_nodes);
  for (std::size_t w = 0; w < timeline.windows.size(); ++w) {
    const auto& win = timeline.windows[w];
    replay.advance();
    text += format(
        "window %d: rejected=%d active=%d idle=%d asleep=%d live=%d"
        " standby=%s\n",
        static_cast<int>(w), win.rejected, win.active_nodes, win.idle_nodes,
        win.asleep_nodes, win.live_chains,
        double_bits(win.standby_energy_j).c_str());
    if (timeline.topology_enabled) {
      text += format(
          "  net: rejected=%d blocked=%d routed=%d violations=%d"
          " latency_ns=%lld link_energy_j=%s\n",
          win.net_rejected, win.net_blocked, win.routed_chains,
          win.latency_violations,
          static_cast<long long>(win.path_latency_sum_ns),
          double_bits(win.link_energy_j).c_str());
    }
    if (timeline.fault_enabled) {
      text += format(
          "  fault: crashes=%d repairs=%d link_fails=%d link_repairs=%d"
          " rerouted=%d down=%d\n",
          win.node_crashes, win.node_repairs, win.link_fails,
          win.link_repairs, win.rerouted, win.down_nodes);
    }
    for (const auto& mig : win.replacements) {
      text += format("  replacement %d: %d->%d\n", mig.chain, mig.from,
                     mig.to);
    }
    if (!win.fault_dropped.empty()) {
      text += format("  fault_dropped=%s\n",
                     join_ints(win.fault_dropped).c_str());
    }
    if (!win.arrivals.empty())
      text += format("  arrivals=%s\n", join_ints(win.arrivals).c_str());
    if (!win.departures.empty())
      text += format("  departures=%s\n", join_ints(win.departures).c_str());
    for (const auto& mig : win.migrations)
      text += format("  migration %d: %d->%d\n", mig.chain, mig.from, mig.to);
    for (const auto& charge : win.charges) {
      text += format("  charge %d: %s downtime=%s energy=%s\n", charge.chain,
                     charge_kind_name(charge.kind),
                     double_bits(charge.downtime_s).c_str(),
                     double_bits(charge.energy_j).c_str());
    }
    for (int node : replay.occupied()) {
      text += format("  members %d: %s\n", node,
                     join_ints(replay.members(node)).c_str());
    }
  }
  return text;
}

}  // namespace greennfv::orchestrator
