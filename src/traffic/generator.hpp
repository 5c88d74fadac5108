#pragma once

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "traffic/flow.hpp"
#include "traffic/profile.hpp"

/// \file generator.hpp
/// The MoonGen stand-in: owns a set of flows and produces per-window offered
/// loads. UDP flows are open-loop; TCP flows run a window-granularity AIMD
/// loop that backs off on observed drops — feed results back through
/// `report_feedback` to close the loop.

namespace greennfv::traffic {

/// Offered load for one simulation window.
struct WindowLoad {
  /// Per-flow offered rate (indexed like the generator's flow list).
  std::vector<double> per_flow_pps;
  double total_pps = 0.0;
};

class TrafficGenerator {
 public:
  TrafficGenerator(std::vector<FlowSpec> flows, std::uint64_t seed);

  /// Advances virtual time by `dt` and returns the offered load in that
  /// window.
  [[nodiscard]] WindowLoad next_window(double dt);

  /// The same step written into `out`, reusing its per-flow buffer.
  void next_window(double dt, WindowLoad& out);

  /// Closes the TCP loop: reports what one flow achieved last window.
  /// No-op for UDP flows.
  void report_feedback(std::size_t flow_index, double goodput_pps,
                       double drop_pps);

  [[nodiscard]] const std::vector<FlowSpec>& flows() const { return flows_; }
  [[nodiscard]] double time_s() const { return time_s_; }

  /// Resets time and all per-flow state (TCP windows, MMPP phases).
  void reset(std::uint64_t seed);

  /// Becomes TrafficGenerator(flows, seed): the new flows, the steady
  /// profile, and fresh per-flow state, clocks and random stream.
  void reset(const std::vector<FlowSpec>& flows, std::uint64_t seed);

  /// Re-steers a flow onto another chain (SDN flow scheduling; the paper's
  /// §6 envisions the SDN and NF controllers updating each other). Takes
  /// effect from the next window.
  void steer_flow(std::size_t flow_index, int chain_index);

  /// Installs a macroscopic rate envelope (diurnal swing, flash crowd...)
  /// multiplying every flow's offered rate. Survives reset(): the profile
  /// is part of the workload definition, not of the random state.
  void set_rate_profile(const RateProfile& profile);
  [[nodiscard]] const RateProfile& rate_profile() const { return profile_; }

  /// Re-zeros the envelope clock at the current virtual time. Evaluation
  /// harnesses call this after warmup so every model — whatever its
  /// settling period — is measured against the same segment of a
  /// non-steady profile (the surge of `flash-crowd` hits at the same
  /// recorded t for all of them).
  void anchor_rate_profile() { profile_t0_s_ = time_s_; }

  /// Declares that the envelope clock currently reads `profile_time_s`
  /// (instead of 0): a node environment rebuilt mid-experiment keeps
  /// tracking the workload's absolute load shape — the fleet orchestrator
  /// re-phases rebuilt nodes onto fleet time with this.
  void anchor_rate_profile(double profile_time_s) {
    profile_t0_s_ = time_s_ - profile_time_s;
  }

 private:
  std::vector<FlowSpec> flows_;
  RateProfile profile_;
  double profile_t0_s_ = 0.0;
  std::vector<std::unique_ptr<ArrivalProcess>> arrivals_;
  /// Per-flow AIMD multiplier in (0, 1]; 1 for UDP.
  std::vector<double> tcp_window_;
  Rng rng_;
  double time_s_ = 0.0;

  static constexpr double kAimdDecrease = 0.7;
  static constexpr double kAimdIncreaseStep = 0.08;
};

/// The evaluation workload of §5: `n` flows with mixed packet sizes and
/// arrival patterns, spread round-robin over `num_chains` chains, scaled so
/// the aggregate offered load is `total_gbps`.
[[nodiscard]] std::vector<FlowSpec> make_eval_flows(int n, int num_chains,
                                                    double total_gbps,
                                                    std::uint64_t seed);

/// A single line-rate CBR flow of the given frame size (the micro-benchmark
/// input: "line rate traffic with a large packet size (1518 Bytes)").
[[nodiscard]] FlowSpec line_rate_flow(std::uint32_t pkt_bytes,
                                      double line_rate_gbps = 10.0,
                                      int chain_index = 0);

}  // namespace greennfv::traffic
