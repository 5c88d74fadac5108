#pragma once

#include <memory>
#include <optional>

#include "core/sla.hpp"
#include "core/spaces.hpp"
#include "nfvsim/engine_analytic.hpp"
#include "rl/env.hpp"

/// \file environment.hpp
/// The NFV control environment the RL agents train against. One `step` is
/// one measurement window of the paper's evaluation: the agent's action
/// reconfigures every chain's five knobs, the simulator runs `window_s` of
/// virtual time under live traffic, and the SLA converts (ΣT, E) into the
/// reward. States are the Eq.-8 tuples {T, E, ξ, Ω} per chain.

namespace greennfv::core {

struct EnvConfig {
  hwmodel::NodeSpec spec;
  int num_chains = 3;
  int num_flows = 5;                 ///< paper §5.1: "use five flows"
  double total_offered_gbps = 12.0;  ///< aggregate offered load
  /// One control/measurement window (one RL step) in virtual seconds.
  double window_s = 10.0;
  /// Sub-windows per step (traffic variation resolution inside a window).
  int sub_windows = 5;
  int steps_per_episode = 8;
  Sla sla = Sla::energy_efficiency();
  /// Use gated rewards (paper) or shaped rewards (ablation).
  bool shaped_reward = false;
  /// Explicit traffic mix. Empty -> the standard §5 workload
  /// (traffic::make_eval_flows over num_flows/total_offered_gbps). When
  /// set, num_flows/total_offered_gbps are ignored for generation.
  std::vector<traffic::FlowSpec> flows;
  /// Per-chain NF compositions (catalog names). Empty -> the standard
  /// heterogeneous rotation (nfvsim::standard_chain_nfs). When set, must
  /// hold exactly num_chains entries.
  std::vector<std::vector<std::string>> chain_nfs;
  /// Macroscopic offered-load envelope (scenario workloads: diurnal,
  /// flash crowd...). Steady by default — bit-transparent.
  traffic::RateProfile rate_profile;
};

class NfvEnvironment final : public rl::Environment {
 public:
  NfvEnvironment(EnvConfig config, std::uint64_t seed);

  /// Becomes NfvEnvironment(config, seed) in place: the chains' cost
  /// profiles at baseline knobs, CAT on and hybrid scheduling, a fresh
  /// traffic generator, zero clock and meter, no observations and a step
  /// count of 0. It keeps the controller and the engine with their
  /// buffers, and rebuilds the DVFS ladder and the node model only when
  /// the spec changes; it builds no NF. The constructor is this call on
  /// an empty environment. An NfController made before it must be
  /// made again, since its scheduler's CAT and scheduling choices are
  /// undone. It throws what the constructor throws; the environment is
  /// then unusable until a reconfigure succeeds.
  void reconfigure(EnvConfig config, std::uint64_t seed);

  [[nodiscard]] std::size_t state_dim() const override;
  [[nodiscard]] std::size_t action_dim() const override;
  /// Reseeds the traffic and settles one window at the knobs the
  /// controller holds; last_knobs() keeps its value.
  [[nodiscard]] std::vector<double> reset(std::uint64_t seed) override;
  [[nodiscard]] StepResult step(std::span<const double> action) override;

  /// Applies explicit knob settings instead of a normalized action and runs
  /// one window — the entry point for the non-RL schedulers (baseline,
  /// heuristic, EE-Pstate) so every model is measured by identical code.
  struct WindowOutcome {
    double throughput_gbps = 0.0;
    double energy_j = 0.0;
    double reward = 0.0;
    double efficiency = 0.0;
    double drop_fraction = 0.0;  ///< offered packets not delivered
    double offered_pps = 0.0;    ///< what the traffic generator pushed
    bool sla_satisfied = false;
    std::vector<ChainObservation> observations;
  };
  /// The outcome is last_outcome(): it lives in the environment until the
  /// next window, which reuses its buffers.
  const WindowOutcome& run_window(
      const std::vector<nfvsim::ChainKnobs>& knobs);

  // --- introspection for telemetry/benches -----------------------------------
  [[nodiscard]] const EnvConfig& config() const { return config_; }
  [[nodiscard]] const WindowOutcome& last_outcome() const {
    return last_outcome_;
  }
  [[nodiscard]] const std::vector<nfvsim::ChainKnobs>& last_knobs() const {
    return last_knobs_;
  }
  [[nodiscard]] nfvsim::OnvmController& controller() { return *controller_; }
  /// The engine behind the windows: its clock, meter and generator.
  [[nodiscard]] const nfvsim::AnalyticEngine& engine() const {
    return *engine_;
  }
  /// The live traffic generator (SDN flow steering hooks in here).
  [[nodiscard]] traffic::TrafficGenerator& generator() {
    return engine_->generator();
  }

  /// Re-zeros the rate-profile clock (see TrafficGenerator::
  /// anchor_rate_profile): the evaluation harness calls this after warmup
  /// so every model meets a non-steady profile at the same measured time.
  void align_rate_profile() { engine_->generator().anchor_rate_profile(); }

  /// Phase variant: the profile clock currently reads `profile_time_s` —
  /// how a node environment rebuilt mid-run (fleet membership change)
  /// stays on the experiment's absolute load shape.
  void align_rate_profile(double profile_time_s) {
    engine_->generator().anchor_rate_profile(profile_time_s);
  }

  /// Mean knob values across chains (what Figs 6-8 plot per episode).
  [[nodiscard]] nfvsim::ChainKnobs mean_knobs() const;

 private:
  EnvConfig config_;
  std::unique_ptr<nfvsim::OnvmController> controller_;
  std::unique_ptr<nfvsim::AnalyticEngine> engine_;
  std::optional<StateCodec> state_codec_;
  std::optional<ActionCodec> action_codec_;
  WindowOutcome last_outcome_;
  std::vector<nfvsim::ChainKnobs> last_knobs_;
  int steps_in_episode_ = 0;

  [[nodiscard]] std::vector<double> encode_state() const;
  /// Runs one window at the knobs the controller holds and records its
  /// outcome; run_window applies its knobs first, reset() does not.
  const WindowOutcome& measure_window();
};

/// Builds the standard evaluation node: `num_chains` heterogeneous 3-NF
/// chains behind one ONVM controller (hybrid scheduling, CAT on). Custom
/// per-chain NF compositions override the standard rotation when given.
[[nodiscard]] std::unique_ptr<nfvsim::OnvmController> make_eval_controller(
    const hwmodel::NodeSpec& spec, int num_chains,
    const std::vector<std::vector<std::string>>& chain_nfs = {});

}  // namespace greennfv::core
