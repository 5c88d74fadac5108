#include "orchestrator/fleet_series.hpp"

namespace greennfv::orchestrator {

const std::vector<std::string>& fleet_series_columns() {
  static const std::vector<std::string> kColumns = {
      // position in time
      "window", "t_s",
      // churn
      "arrivals", "departures", "rejected", "net_rejected", "net_blocked",
      "live_chains",
      // commitment + power-state census
      "committed_cores", "capacity_cores", "active_nodes", "idle_nodes",
      "asleep_nodes", "down_nodes",
      // energy decomposition
      "standby_energy_j", "wake_energy_j", "migration_energy_j",
      "replace_energy_j", "link_energy_j",
      // transitions + fault recovery outcomes
      "wakeups", "migrations", "replacements", "fault_dropped", "rerouted",
      // fault injections applied this window
      "node_crashes", "node_repairs", "link_fails", "link_repairs",
      // SLA pressure
      "routed_chains", "latency_violations", "path_latency_us",
      // fabric load
      "link_util_mean", "link_util_max",
      // downtime charged this window, all causes
      "downtime_s"};
  return kColumns;
}

FleetSeriesSampler::FleetSeriesSampler(int horizon, double window_s,
                                       bool armed)
    : window_s_(window_s) {
  if (!armed || !telemetry::series::enabled()) return;
  table_ = std::make_shared<telemetry::SeriesTable>(fleet_series_columns());
  if (horizon > 0) table_->reserve_rows(static_cast<std::size_t>(horizon));
  row_.resize(fleet_series_columns().size());
}

void FleetSeriesSampler::sample(int window, const FleetTimeline::Window& win,
                                double committed_cores, double capacity_cores,
                                const topology::PathTable* net) {
  if (table_ == nullptr) return;

  // Decompose the window's downtime charges by cause. Every wake-up
  // pushes exactly one kWake charge, so counting them recovers the
  // window's wakeup count; kDrop charges carry no energy, so replace
  // energy is the kReplace+kDrop sum.
  double wake_e = 0.0;
  double migration_e = 0.0;
  double replace_e = 0.0;
  double downtime_s = 0.0;
  double wakeups = 0.0;
  for (const DowntimeCharge& charge : win.charges) {
    downtime_s += charge.downtime_s;
    switch (charge.kind) {
      case ChargeKind::kWake:
        wake_e += charge.energy_j;
        wakeups += 1.0;
        break;
      case ChargeKind::kMigration:
        migration_e += charge.energy_j;
        break;
      case ChargeKind::kReplace:
      case ChargeKind::kDrop:
        replace_e += charge.energy_j;
        break;
    }
  }

  // Link utilization over the live fabric: committed / capacity per
  // non-failed link. Failed links are powered off and routable around,
  // so they are excluded from the census (a dead link is not "0% hot").
  double util_sum = 0.0;
  double util_max = 0.0;
  int util_links = 0;
  if (net != nullptr) {
    const topology::Topology& topo = net->topo();
    for (int link = 0; link < topo.num_links(); ++link) {
      if (net->link_failed(link)) continue;
      const auto capacity = topo.links()[static_cast<std::size_t>(link)]
                                .capacity_kbps;
      if (capacity <= 0) continue;
      const double util = static_cast<double>(net->committed_kbps(link)) /
                          static_cast<double>(capacity);
      util_sum += util;
      if (util > util_max) util_max = util;
      ++util_links;
    }
  }
  const double util_mean = util_links > 0 ? util_sum / util_links : 0.0;
  const double path_latency_us =
      win.routed_chains > 0
          ? static_cast<double>(win.path_latency_sum_ns) /
                (1e3 * win.routed_chains)
          : 0.0;

  std::size_t i = 0;
  row_[i++] = static_cast<double>(window);
  row_[i++] = static_cast<double>(window) * window_s_;
  row_[i++] = static_cast<double>(win.arrivals.size());
  row_[i++] = static_cast<double>(win.departures.size());
  row_[i++] = static_cast<double>(win.rejected);
  row_[i++] = static_cast<double>(win.net_rejected);
  row_[i++] = static_cast<double>(win.net_blocked);
  row_[i++] = static_cast<double>(win.live_chains);
  row_[i++] = committed_cores;
  row_[i++] = capacity_cores;
  row_[i++] = static_cast<double>(win.active_nodes);
  row_[i++] = static_cast<double>(win.idle_nodes);
  row_[i++] = static_cast<double>(win.asleep_nodes);
  row_[i++] = static_cast<double>(win.down_nodes);
  row_[i++] = win.standby_energy_j;
  row_[i++] = wake_e;
  row_[i++] = migration_e;
  row_[i++] = replace_e;
  row_[i++] = win.link_energy_j;
  row_[i++] = wakeups;
  row_[i++] = static_cast<double>(win.migrations.size());
  row_[i++] = static_cast<double>(win.replacements.size());
  row_[i++] = static_cast<double>(win.fault_dropped.size());
  row_[i++] = static_cast<double>(win.rerouted);
  row_[i++] = static_cast<double>(win.node_crashes);
  row_[i++] = static_cast<double>(win.node_repairs);
  row_[i++] = static_cast<double>(win.link_fails);
  row_[i++] = static_cast<double>(win.link_repairs);
  row_[i++] = static_cast<double>(win.routed_chains);
  row_[i++] = static_cast<double>(win.latency_violations);
  row_[i++] = path_latency_us;
  row_[i++] = util_mean;
  row_[i++] = util_max;
  row_[i++] = downtime_s;
  table_->append_row(row_);
}

}  // namespace greennfv::orchestrator
