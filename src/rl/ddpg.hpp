#pragma once

#include <memory>
#include <span>
#include <vector>

#include "rl/mlp.hpp"
#include "rl/noise.hpp"
#include "rl/replay.hpp"

/// \file ddpg.hpp
/// Deep Deterministic Policy Gradient (Lillicrap et al., ICLR'16) — the
/// paper's Algorithm 2. Actor μ_θ maps states to continuous actions in
/// [-1,1]^d (tanh head); critic Q_θ scores (state, action) pairs. Target
/// copies of both are soft-updated with rate τ. The critic minimizes the
/// TD error against y = r + γ·Q'(x', μ'(x')); the actor ascends
/// ∇_a Q(x, a)|a=μ(x) chained through its own Jacobian (Eq. 6).

namespace greennfv::rl {

struct DdpgConfig {
  std::size_t state_dim = 0;
  std::size_t action_dim = 0;
  std::vector<std::size_t> actor_hidden = {64, 64};
  std::vector<std::size_t> critic_hidden = {64, 64};
  double actor_lr = 1e-4;
  double critic_lr = 1e-3;
  double gamma = 0.99;   ///< discount factor
  double tau = 5e-3;     ///< target soft-update rate (Algorithm 2, l.9-10)
  std::size_t batch_size = 64;
  /// Clip each sample's critic gradient contribution ("clipping rewards"
  /// stabilizer from the DQN lineage, applied to TD errors here).
  double td_error_clip = 10.0;
};

/// Diagnostics from one train step; `td_errors` feed PER priorities.
struct TrainStats {
  double critic_loss = 0.0;
  double actor_objective = 0.0;  ///< mean Q(x, μ(x)) before the update
  std::vector<double> td_errors;
  std::vector<std::uint64_t> indices;
};

class DdpgAgent {
 public:
  /// Inference scratch owned by the caller: one per rollout thread, so
  /// concurrent Ape-X actors and schedulers each act allocation-free
  /// against const agents without sharing mutable state.
  struct ActScratch {
    Mlp::Workspace ws;
    std::vector<double> noise;
  };

  DdpgAgent(DdpgConfig config, std::uint64_t seed);

  /// Deterministic policy μ(x) in [-1,1]^action_dim.
  [[nodiscard]] std::vector<double> act(std::span<const double> state) const;

  /// Allocation-free μ(x): writes the action into `action` (size
  /// action_dim) through caller-owned scratch — the per-env-step path.
  void act_into(std::span<const double> state, ActScratch& scratch,
                std::span<double> action) const;

  /// Behaviour policy: μ(x) + noise, clamped to [-1,1].
  [[nodiscard]] std::vector<double> act_noisy(std::span<const double> state,
                                              NoiseProcess& noise, Rng& rng)
      const;

  /// Allocation-free behaviour policy (act_into + noise, clamped).
  void act_noisy_into(std::span<const double> state, NoiseProcess& noise,
                      Rng& rng, ActScratch& scratch,
                      std::span<double> action) const;

  /// One minibatch update from `replay` (critic + actor + target sync),
  /// executed as four batched GEMM passes (target-actor, target-critic,
  /// critic fwd+bwd, actor fwd+bwd chained through the critic's ∂Q/∂a
  /// slice) over transitions gathered straight into reusable batch
  /// matrices — zero allocations after the first call. Returns stats incl.
  /// per-sample TD errors (a reference to persistent storage, valid until
  /// the next train step), which the caller pushes back into prioritized
  /// replay.
  const TrainStats& train_step(ReplayInterface& replay, Rng& rng);

  /// The original per-sample implementation (6·N matvec passes per
  /// minibatch). Numerically equivalent to train_step — kept as the
  /// reference the batched-equivalence suite and bench_train compare
  /// against; not a hot path.
  TrainStats train_step_reference(ReplayInterface& replay, Rng& rng);

  [[nodiscard]] const DdpgConfig& config() const { return config_; }
  [[nodiscard]] const Mlp& actor() const { return actor_; }
  [[nodiscard]] const Mlp& critic() const { return critic_; }

  /// Parameter transfer for Ape-X actor sync.
  [[nodiscard]] std::vector<double> actor_parameters() const;
  void set_actor_parameters(std::span<const double> params);

  /// Persists the deterministic policy to disk / restores it. The restore
  /// validates network dimensions against this agent's configuration.
  void save_actor(const std::string& path) const;
  void load_actor(const std::string& path);

  [[nodiscard]] std::int64_t train_steps() const { return train_steps_; }

  /// Multiplies both optimizers' learning rates (annealing for late-stage
  /// fine-tuning; DDPG is prone to late-training policy drift otherwise).
  void scale_learning_rates(double factor);

 private:
  DdpgConfig config_;
  Rng init_rng_;
  Mlp actor_;
  Mlp critic_;
  Mlp target_actor_;
  Mlp target_critic_;
  AdamOptimizer actor_opt_;
  AdamOptimizer critic_opt_;
  std::int64_t train_steps_ = 0;

  // --- batched-training scratch (persists across steps) --------------------
  // Resized on the first train_step and reused thereafter: the training
  // hot loop performs no heap allocations at steady state.
  Minibatch batch_;
  TrainStats stats_;
  Mlp::BatchWorkspace target_actor_ws_;
  Mlp::BatchWorkspace target_critic_ws_;
  Mlp::BatchWorkspace critic_ws_;       ///< critic fwd/bwd on replay actions
  Mlp::BatchWorkspace critic_pol_ws_;   ///< critic fwd/bwd on policy actions
  Mlp::BatchWorkspace actor_ws_;
  Mlp::Gradients critic_grads_;
  Mlp::Gradients actor_grads_;
  Mlp::Gradients critic_scratch_;       ///< discarded ∂Q/∂θ of the actor pass
  std::vector<double> y_;               ///< TD targets
  Matrix dq_;                           ///< batch×1 critic loss gradient
  Matrix ones_;                         ///< batch×1, dQ seed for ∂Q/∂a
  Matrix dq_da_;                        ///< batch×action_dim actor seed

  [[nodiscard]] static Mlp build_actor(const DdpgConfig& config, Rng& rng);
  [[nodiscard]] static Mlp build_critic(const DdpgConfig& config, Rng& rng);
  [[nodiscard]] std::vector<double> critic_input(
      std::span<const double> state, std::span<const double> action) const;
  void ensure_train_scratch(std::size_t n);
};

}  // namespace greennfv::rl
