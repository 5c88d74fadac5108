#pragma once

#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "rl/tensor.hpp"

/// \file mlp.hpp
/// Fully-connected network with manual backprop and an Adam optimizer —
/// the function approximators behind DDPG's actor and critic (the paper's
/// learner is TensorFlow; this is the from-scratch C++ equivalent).
///
/// Design notes:
///   * Forward passes for *inference* are const and allocation-free given a
///     caller-provided Workspace, so Ape-X actors can act concurrently on
///     shared parameter snapshots.
///   * Training runs whole minibatches: one batched forward, one batched
///     backward into an external Gradients struct, one optimizer step.
///     The per-sample oracle is test code (tests/support/ddpg_reference).

namespace greennfv::rl {

enum class Activation { kLinear, kRelu, kTanh, kSigmoid };

[[nodiscard]] std::string to_string(Activation act);

struct LayerSpec {
  std::size_t units = 0;
  Activation activation = Activation::kRelu;
};

class Mlp {
 public:
  /// Per-layer weight gradients mirroring the network's shape.
  struct Gradients {
    std::vector<Matrix> dw;
    std::vector<std::vector<double>> db;
  };

  /// Per-layer outputs a = f(Wx + b) of one inference forward pass.
  struct Workspace {
    std::vector<std::vector<double>> post;
  };

  /// Minibatch-granularity workspace: one row per sample. `input` doubles
  /// as the staging buffer — callers gather sampled transitions straight
  /// into it, then run forward_batch and backward_batch or
  /// input_grad_batch. All matrices are resized on first use and reused
  /// thereafter, so the batched hot path performs zero allocations once
  /// shapes stabilize.
  struct BatchWorkspace {
    Matrix input;               ///< batch × input_dim
    std::vector<Matrix> pre;    ///< batch × units[l]
    std::vector<Matrix> post;   ///< batch × units[l]
    std::vector<Matrix> delta;  ///< backward scratch, batch × units[l]
    Matrix dx;                  ///< batch × input_dim (input_grad_batch)
  };

  /// Builds the network. Hidden layers get Xavier init; the output layer
  /// gets small-uniform init (DDPG convention, |w| <= 3e-3).
  Mlp(std::size_t input_dim, const std::vector<LayerSpec>& layers, Rng& rng);

  [[nodiscard]] std::size_t input_dim() const { return input_dim_; }
  [[nodiscard]] std::size_t output_dim() const;
  [[nodiscard]] std::size_t num_layers() const { return weights_.size(); }
  [[nodiscard]] std::size_t num_parameters() const;

  /// Inference forward pass (allocates a scratch workspace internally).
  [[nodiscard]] std::vector<double> forward(
      std::span<const double> input) const;

  /// Allocation-free inference: runs the forward pass through `ws` and
  /// writes the output into `out` (size output_dim()). After the first
  /// call with a given workspace no memory is touched — this is the
  /// per-env-step rollout path for trainers, schedulers, and Ape-X actors.
  void forward_into(std::span<const double> input, Workspace& ws,
                    std::span<double> out) const;

  /// Batched training forward over ws.input (batch × input_dim), recording
  /// per-layer activations in `ws`. Returns the output activations
  /// (batch × output_dim) — a reference into `ws`, valid until the next
  /// forward_batch on the same workspace.
  const Matrix& forward_batch(BatchWorkspace& ws) const;

  /// Convenience overload: copies `x` into ws.input first.
  const Matrix& forward_batch(const Matrix& x, BatchWorkspace& ws) const;

  /// Batched backprop of dY (batch × output_dim) through the pass recorded
  /// in `ws`, overwriting `grads` with the minibatch-summed parameter
  /// gradients (no pre-zeroing needed — each element's sum starts at 0 and
  /// accumulates the batch in order, as a per-sample loop would). Computes
  /// no dL/dX: that is input_grad_batch. Gradient buffers and workspace
  /// scratch persist across steps: zero steady-state allocations.
  void backward_batch(const Matrix& output_grad, BatchWorkspace& ws,
                      Gradients& grads) const;

  /// Batched dL/dX (batch × input_dim) for dY through the pass recorded in
  /// `ws`, and no parameter gradients — what DDPG's actor update needs
  /// from the critic. Each row equals a per-sample backward pass's input
  /// gradient bit for bit. Returns a reference to ws.dx.
  const Matrix& input_grad_batch(const Matrix& output_grad,
                                 BatchWorkspace& ws) const;

  /// Zeroed gradients shaped like this network.
  [[nodiscard]] Gradients make_gradients() const;

  /// Flat parameter vector (weights then biases, layer by layer).
  [[nodiscard]] std::vector<double> parameters() const;
  void set_parameters(std::span<const double> params);

  /// θ ← τ·θ_src + (1-τ)·θ  (the DDPG target-network soft update,
  /// Algorithm 2 lines 9-10).
  void soft_update_from(const Mlp& src, double tau);

  /// θ ← θ_src (hard sync; Ape-X actors pulling learner parameters).
  void copy_from(const Mlp& src);

  /// In-place SGD-free Adam step (optimizer state lives in AdamOptimizer).
  friend class AdamOptimizer;

 private:
  std::size_t input_dim_;
  std::vector<Matrix> weights_;
  std::vector<std::vector<double>> biases_;
  std::vector<Activation> activations_;

  static void apply_activation(Activation act, std::span<double> v);
  /// d ⊙= f'(z) for layer pre-activations `pre` and outputs `post`:
  /// turns dL/d(post) into dL/d(pre).
  static void scale_by_activation_grad(Activation act, std::span<double> d,
                                       std::span<const double> pre,
                                       std::span<const double> post);
  /// The batched backward sweep, top layer down. With `grads` it fills
  /// the parameter gradients and stops propagating at layer 0; without, it
  /// computes only the deltas that lead to ws.dx.
  void backward_sweep(const Matrix& output_grad, BatchWorkspace& ws,
                      Gradients* grads) const;
};

/// Adam (Kingma & Ba) with per-parameter first/second moments.
class AdamOptimizer {
 public:
  AdamOptimizer(const Mlp& model, double lr, double beta1 = 0.9,
                double beta2 = 0.999, double epsilon = 1e-8);

  /// Applies one update of `grads` (assumed already minibatch-averaged,
  /// gradient-descent direction) to `model`.
  void step(Mlp& model, const Mlp::Gradients& grads);

  [[nodiscard]] std::int64_t steps_taken() const { return t_; }

 private:
  double lr_;
  double beta1_;
  double beta2_;
  double epsilon_;
  std::int64_t t_ = 0;
  std::vector<Matrix> m_w_, v_w_;
  std::vector<std::vector<double>> m_b_, v_b_;
};

}  // namespace greennfv::rl
