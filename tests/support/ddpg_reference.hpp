#pragma once

#include <span>
#include <vector>

#include "rl/ddpg.hpp"

/// \file ddpg_reference.hpp
/// The per-sample training oracle: DDPG (Algorithm 2) with each minibatch
/// sample run through its own forward and backward passes, in the
/// accumulation order the batched GEMM passes reproduce. The shipped
/// learner, DdpgAgent::train_step, runs whole minibatches; the
/// batched-equivalence suites compare it against this oracle, and
/// bench_train times it as the per-sample baseline. Not used on any
/// production path.

namespace greennfv::rl {

/// An Mlp's parameters, read through Mlp::parameters() by the specs the
/// network was built from, run one sample at a time with plain loops.
class SampleNet {
 public:
  SampleNet(const Mlp& net, const std::vector<LayerSpec>& layers);

  /// One input's forward pass; records what backward() reads.
  std::vector<double> forward(std::span<const double> input);

  /// Backpropagates dL/d(output) through the last forward(), adds the
  /// parameter gradients into `grads` unless it is null, and returns
  /// dL/d(input).
  std::vector<double> backward(std::span<const double> output_grad,
                               Mlp::Gradients* grads) const;

 private:
  struct Layer {
    Matrix w;
    std::vector<double> b;
    Activation activation;
  };
  std::vector<Layer> layers_;
  std::vector<double> input_;
  std::vector<std::vector<double>> pre_;   ///< Wx + b per layer
  std::vector<std::vector<double>> post_;  ///< f(Wx + b) per layer
};

/// DDPG trained one sample at a time. It copies an untrained agent's
/// networks (the agent's targets equal them and its Adam moments are
/// zero) and keeps its own targets and optimizers, so it takes the same
/// steps as that agent given the same replay draws.
class DdpgReference {
 public:
  explicit DdpgReference(const DdpgAgent& fresh);

  /// DdpgAgent::train_step's update, sample by sample.
  TrainStats train_step(ReplayInterface& replay, Rng& rng);

  [[nodiscard]] const Mlp& actor() const { return actor_; }
  [[nodiscard]] const Mlp& critic() const { return critic_; }

 private:
  DdpgConfig config_;
  std::vector<LayerSpec> actor_layers_;
  std::vector<LayerSpec> critic_layers_;
  Mlp actor_;
  Mlp critic_;
  Mlp target_actor_;
  Mlp target_critic_;
  AdamOptimizer actor_opt_;
  AdamOptimizer critic_opt_;
};

}  // namespace greennfv::rl
