#include "orchestrator/timeline_io.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "common/assert.hpp"
#include "common/string_util.hpp"

namespace greennfv::orchestrator {

MembershipReplay::MembershipReplay(const FleetTimeline& timeline,
                                   int num_nodes)
    : timeline_(&timeline),
      members_(static_cast<std::size_t>(num_nodes)),
      chain_node_(timeline.chains.size(), -1) {
  GNFV_REQUIRE(num_nodes > 0, "MembershipReplay: num_nodes must be > 0");
}

void MembershipReplay::move_chain(int chain, int to) {
  auto& node = chain_node_[static_cast<std::size_t>(chain)];
  if (node >= 0) {
    auto& hosted = members_[static_cast<std::size_t>(node)];
    hosted.erase(std::find(hosted.begin(), hosted.end(), chain));
    dirty_.push_back(node);
    if (hosted.empty()) {
      occupied_.erase(
          std::lower_bound(occupied_.begin(), occupied_.end(), node));
    }
  }
  node = to;
  if (to >= 0) {
    auto& hosted = members_[static_cast<std::size_t>(to)];
    if (hosted.empty()) {
      occupied_.insert(
          std::lower_bound(occupied_.begin(), occupied_.end(), to), to);
    }
    hosted.push_back(chain);
    dirty_.push_back(to);
  }
}

const std::vector<int>& MembershipReplay::advance() {
  GNFV_REQUIRE(
      cursor_ < static_cast<int>(timeline_->windows.size()),
      "MembershipReplay::advance: past the end of the timeline");
  const auto& win = timeline_->windows[static_cast<std::size_t>(cursor_)];
  ++cursor_;
  dirty_.clear();
  // Builder order: departures leave at window start, then fault recovery
  // (replacements in application order — a chain can be re-placed twice
  // in one window when its new host crashes too — then drops, which are
  // always a chain's final event), then arrivals land on their recorded
  // first_node, then consolidation migrations move chains.
  for (int chain : win.departures) move_chain(chain, -1);
  for (const auto& mig : win.replacements) move_chain(mig.chain, mig.to);
  for (int chain : win.fault_dropped) move_chain(chain, -1);
  for (int chain : win.arrivals) {
    move_chain(chain,
               timeline_->chains[static_cast<std::size_t>(chain)].first_node);
  }
  for (const auto& mig : win.migrations) move_chain(mig.chain, mig.to);
  std::sort(dirty_.begin(), dirty_.end());
  dirty_.erase(std::unique(dirty_.begin(), dirty_.end()), dirty_.end());
  // End-of-window discipline: perturbed hosted lists are kept sorted, so
  // every window starts (and serializes) with sorted membership.
  for (int node : dirty_)
    std::sort(members_[static_cast<std::size_t>(node)].begin(),
              members_[static_cast<std::size_t>(node)].end());
  return dirty_;
}

std::string double_bits(double value) {
  std::uint64_t raw = 0;
  std::memcpy(&raw, &value, sizeof raw);
  return format("%.17g/%016llx", value,
                static_cast<unsigned long long>(raw));
}

std::string eval_to_text(const FleetReport& report) {
  std::string text = "# greennfv fleet eval v1\n";
  text += format("scenario=%s nodes=%d models=%d\n",
                 report.report.scenario.c_str(), report.report.nodes,
                 static_cast<int>(report.report.models.size()));
  text += format("fleet arrivals=%d departures=%d rejected=%d migrations=%d"
                 " wakeups=%d\n",
                 report.arrivals, report.departures, report.rejected,
                 report.migrations, report.wakeups);
  text += format("fleet standby=%s wake=%s migration=%s\n",
                 double_bits(report.standby_energy_j).c_str(),
                 double_bits(report.wake_energy_j).c_str(),
                 double_bits(report.migration_energy_j).c_str());
  text += format("fleet mean_active=%s mean_asleep=%s mean_live=%s\n",
                 double_bits(report.mean_active_nodes).c_str(),
                 double_bits(report.mean_asleep_nodes).c_str(),
                 double_bits(report.mean_live_chains).c_str());
  text += "occupancy_fractions=";
  for (std::size_t i = 0; i < report.occupancy_fractions.size(); ++i) {
    if (i) text += ',';
    text += double_bits(report.occupancy_fractions[i]);
  }
  text += '\n';
  if (report.topology_enabled) {
    text += format(
        "fleet topology=%s/%s switches=%d links=%d net_rejected=%d"
        " net_blocked=%d\n",
        report.topology_preset.c_str(), report.topology_routing.c_str(),
        report.topology_switches, report.topology_links, report.net_rejected,
        report.net_blocked);
    text += format(
        "fleet link_energy_j=%s mean_path_latency_us=%s latency_sla=%s"
        " latency_budget_us=%s\n",
        double_bits(report.link_energy_j).c_str(),
        double_bits(report.mean_path_latency_us).c_str(),
        double_bits(report.latency_sla_satisfaction).c_str(),
        double_bits(report.latency_budget_us).c_str());
  }
  if (report.fault_enabled) {
    text += format(
        "fleet fault crashes=%d repairs=%d link_fails=%d link_repairs=%d"
        " rack_outages=%d storm_windows=%d\n",
        report.node_crashes, report.node_repairs, report.link_fails,
        report.link_repairs, report.rack_outages, report.storm_windows);
    text += format(
        "fleet fault replaced=%d dropped=%d rerouted=%d replace_energy_j=%s"
        " mean_down_nodes=%s\n",
        report.replaced, report.fault_dropped, report.rerouted,
        double_bits(report.replace_energy_j).c_str(),
        double_bits(report.mean_down_nodes).c_str());
  }
  for (const auto& model : report.report.models) {
    const auto& r = model.result;
    text += format(
        "model %s: windows=%d mean_gbps=%s mean_energy_j=%s mean_power_w=%s"
        " mean_efficiency=%s sla=%s drop=%s\n",
        r.scheduler.c_str(), r.windows, double_bits(r.mean_gbps).c_str(),
        double_bits(r.mean_energy_j).c_str(),
        double_bits(r.mean_power_w).c_str(),
        double_bits(r.mean_efficiency).c_str(),
        double_bits(r.sla_satisfaction).c_str(),
        double_bits(r.drop_fraction).c_str());
  }
  auto names = report.report.series.series_names();
  std::sort(names.begin(), names.end());
  for (const auto& name : names) {
    const auto& series = report.report.series.series(name);
    text += format("series %s: n=%d\n", name.c_str(),
                   static_cast<int>(series.size()));
    for (std::size_t i = 0; i < series.size(); ++i) {
      text += format("  %s %s\n", double_bits(series.times()[i]).c_str(),
                     double_bits(series.values()[i]).c_str());
    }
  }
  return text;
}

}  // namespace greennfv::orchestrator
