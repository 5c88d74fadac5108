#pragma once

#include <vector>

#include "hwmodel/energy_meter.hpp"
#include "hwmodel/node.hpp"
#include "nfvsim/controller.hpp"
#include "traffic/generator.hpp"

/// \file engine_analytic.hpp
/// The windowed virtual-time simulator: every `step(dt)` it samples the
/// traffic generator, evaluates the node model at the controller's current
/// knob state, integrates energy, and feeds goodput/drop feedback to TCP
/// flows. Fast enough to run the RL training loops (tens of thousands of
/// episodes) while exercising the exact same controller/knob code path as
/// the threaded engine. Steps and runs work in buffers the engine owns, so
/// once they have held the node's chains and flows they allocate nothing.
/// Every step counts `nfvsim.node_evals`, and `nfvsim.capacity_evals` the
/// chain capacities it could not reuse from the step before.

namespace greennfv::nfvsim {

/// Everything measured in one window.
struct WindowMetrics {
  double t_start_s = 0.0;
  double dt_s = 0.0;
  hwmodel::NodeEvaluation node;
  double energy_j = 0.0;           ///< node energy for this window
  double offered_pps = 0.0;

  [[nodiscard]] double total_gbps() const { return node.total_goodput_gbps; }
  [[nodiscard]] double power_w() const { return node.power_w; }
  [[nodiscard]] double utilization() const { return node.utilization; }
};

class AnalyticEngine {
 public:
  /// The engine borrows the controller (knobs may be changed between
  /// steps) and owns its traffic generator.
  AnalyticEngine(OnvmController& controller,
                 traffic::TrafficGenerator generator);

  /// Advances virtual time by `dt` seconds and returns the window metrics,
  /// which live in the engine until the next step.
  const WindowMetrics& step(double dt);

  /// Runs `windows` steps of `dt` and returns aggregate means/totals —
  /// the "episode" primitive the RL environment builds on.
  struct RunSummary {
    double duration_s = 0.0;
    double mean_gbps = 0.0;
    double mean_power_w = 0.0;
    double energy_j = 0.0;
    double mean_utilization = 0.0;
    double mean_offered_pps = 0.0;
    double mean_goodput_pps = 0.0;
    double drop_fraction = 0.0;
    /// Per-chain mean throughput in Gbps.
    std::vector<double> chain_gbps;
    /// Per-chain mean packet arrival rate (the state-space Ω signal).
    std::vector<double> chain_arrival_pps;
    /// Per-chain attributed energy over the run (the state-space E signal).
    std::vector<double> chain_energy_j;
    /// Per-chain mean busy cores (the state-space ξ signal; 1.0 = 100%).
    std::vector<double> chain_busy_cores;
  };
  /// The summary lives in the engine until the next run.
  const RunSummary& run(int windows, double dt);

  [[nodiscard]] double time_s() const { return time_s_; }
  [[nodiscard]] const hwmodel::EnergyMeter& meter() const { return meter_; }
  [[nodiscard]] OnvmController& controller() { return controller_; }
  [[nodiscard]] traffic::TrafficGenerator& generator() { return generator_; }

  /// Resets virtual time, the meter, and the traffic state, and drops the
  /// node model terms the window buffer kept for reuse.
  void reset(std::uint64_t seed);

  /// Becomes AnalyticEngine(controller, TrafficGenerator(flows, seed)) on
  /// the controller's current chains: a fresh generator, zero clock and
  /// meter, and the node model rebuilt only if the controller's spec
  /// changed. The buffers are kept; the terms they kept for reuse are
  /// dropped.
  void reconfigure(const std::vector<traffic::FlowSpec>& flows,
                   std::uint64_t seed);

 private:
  OnvmController& controller_;
  traffic::TrafficGenerator generator_;
  hwmodel::NodeModel node_model_;
  hwmodel::EnergyMeter meter_;
  double time_s_ = 0.0;

  // Per-step buffers, overwritten by every step.
  traffic::WindowLoad load_;
  std::vector<hwmodel::ChainWorkload> workloads_;
  std::vector<double> chain_bytes_;
  WindowMetrics metrics_;
  RunSummary summary_;

  /// Requires chains, and a chain for every flow to feed.
  void check_flows() const;

  /// Folds load_'s per-flow rates into workloads_ (offered pps plus
  /// pps-weighted mean frame size per chain).
  void fold_workloads();
};

}  // namespace greennfv::nfvsim
