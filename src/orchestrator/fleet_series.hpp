#pragma once

#include <memory>
#include <string>
#include <vector>

#include "orchestrator/fleet.hpp"
#include "telemetry/series.hpp"
#include "topology/path_table.hpp"

/// \file fleet_series.hpp
/// The per-window fleet health sampler: one SeriesTable row per
/// accounting window, capturing the energy decomposition, power-state
/// census, core commitment, churn, SLA pressure, fault events, and
/// link-utilization summary of the window that just closed. Both fleet
/// engines call sample() at the end of their accounting phase; the
/// sampler is inert (and free) unless telemetry::series::enabled() was
/// set before the timeline build. Everything here is *derived* from
/// window state the engines already computed — the sampler never feeds
/// back into the simulation, which is what keeps timelines byte-identical
/// with sampling on or off.

namespace greennfv::orchestrator {

/// The fixed column schema, in emission order. Shared by the sampler,
/// the campaign exports (`runs/<id>.series.csv`), the per-cell
/// aggregates, and the report generator's validators.
[[nodiscard]] const std::vector<std::string>& fleet_series_columns();

class FleetSeriesSampler {
 public:
  /// Arms the sampler iff `armed` (health series are a fleet artifact;
  /// static deployments pass false) and the global series gate is on;
  /// `horizon` sizes the table up front so steady-state sampling never
  /// allocates.
  FleetSeriesSampler(int horizon, double window_s, bool armed);

  /// False when the gate was off at construction — callers skip the
  /// per-window derivation work entirely.
  [[nodiscard]] bool active() const { return table_ != nullptr; }

  /// Captures one closed window. `committed_cores` is the fleet-wide core
  /// commitment over up nodes at window end; `capacity_cores` the
  /// capacity of those same up nodes; `net` is null for non-topology
  /// runs.
  void sample(int window, const FleetTimeline::Window& win,
              double committed_cores, double capacity_cores,
              const topology::PathTable* net);

  /// The finished table (null when inactive). The timeline holds this
  /// alias, so the table outlives the sampler.
  [[nodiscard]] std::shared_ptr<const telemetry::SeriesTable> table() const {
    return table_;
  }

 private:
  double window_s_;
  std::shared_ptr<telemetry::SeriesTable> table_;
  std::vector<double> row_;  ///< scratch, one slot per column
};

}  // namespace greennfv::orchestrator
