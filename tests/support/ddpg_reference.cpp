#include "tests/support/ddpg_reference.hpp"

#include <cmath>

#include "common/assert.hpp"
#include "common/math_util.hpp"

// The per-sample path the batched passes replaced, in its accumulation
// order: each layer's sum starts at its bias and adds its input in
// increasing index order, and gradients accumulate sample by sample in
// batch order. Do not "optimize" these loops — their value is being the
// plain statement of each pass the GEMM kernels are proven equal to.

namespace greennfv::rl {

namespace {

double activate(Activation act, double z) {
  switch (act) {
    case Activation::kRelu:    return z > 0.0 ? z : 0.0;
    case Activation::kTanh:    return std::tanh(z);
    case Activation::kSigmoid: return 1.0 / (1.0 + std::exp(-z));
    case Activation::kLinear:  break;
  }
  return z;
}

/// f'(z), from z and a = f(z).
double derivative(Activation act, double z, double a) {
  switch (act) {
    case Activation::kRelu:    return z > 0.0 ? 1.0 : 0.0;
    case Activation::kTanh:    return 1.0 - a * a;
    case Activation::kSigmoid: return a * (1.0 - a);
    case Activation::kLinear:  break;
  }
  return 1.0;
}

std::vector<double> joined(std::span<const double> state,
                           std::span<const double> action) {
  std::vector<double> input(state.begin(), state.end());
  input.insert(input.end(), action.begin(), action.end());
  return input;
}

/// DdpgAgent's networks (Algorithm 2): ReLU hidden layers, then a tanh
/// action head or a linear value head.
std::vector<LayerSpec> layer_specs(const std::vector<std::size_t>& hidden,
                                   std::size_t outputs, Activation head) {
  std::vector<LayerSpec> layers;
  for (const std::size_t units : hidden)
    layers.push_back({units, Activation::kRelu});
  layers.push_back({outputs, head});
  return layers;
}

}  // namespace

SampleNet::SampleNet(const Mlp& net, const std::vector<LayerSpec>& layers)
    : pre_(layers.size()), post_(layers.size()) {
  const std::vector<double> params = net.parameters();
  std::size_t cursor = 0;
  std::size_t fan_in = net.input_dim();
  for (const LayerSpec& spec : layers) {
    Layer layer{Matrix(spec.units, fan_in), std::vector<double>(spec.units),
                spec.activation};
    GNFV_REQUIRE(cursor + layer.w.size() + spec.units <= params.size(),
                 "SampleNet: layer specs disagree with the network");
    for (double& w : layer.w.flat()) w = params[cursor++];
    for (double& b : layer.b) b = params[cursor++];
    layers_.push_back(std::move(layer));
    fan_in = spec.units;
  }
  GNFV_REQUIRE(cursor == params.size(),
               "SampleNet: layer specs disagree with the network");
}

std::vector<double> SampleNet::forward(std::span<const double> input) {
  GNFV_REQUIRE(input.size() == layers_.front().w.cols(),
               "SampleNet: input dim");
  input_.assign(input.begin(), input.end());
  const double* x = input_.data();
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const Layer& layer = layers_[l];
    const std::size_t cols = layer.w.cols();
    pre_[l].resize(layer.b.size());
    post_[l].resize(layer.b.size());
    for (std::size_t r = 0; r < layer.b.size(); ++r) {
      const double* w = layer.w.data() + r * cols;
      double z = layer.b[r];
      for (std::size_t c = 0; c < cols; ++c) z += w[c] * x[c];
      pre_[l][r] = z;
      post_[l][r] = activate(layer.activation, z);
    }
    x = post_[l].data();
  }
  return post_.back();
}

std::vector<double> SampleNet::backward(std::span<const double> output_grad,
                                        Mlp::Gradients* grads) const {
  std::vector<double> delta(output_grad.begin(), output_grad.end());
  for (std::size_t li = layers_.size(); li-- > 0;) {
    const Layer& layer = layers_[li];
    const std::size_t rows = layer.w.rows();
    const std::size_t cols = layer.w.cols();
    const double* x = li == 0 ? input_.data() : post_[li - 1].data();
    // dL/d(post) -> dL/d(pre).
    for (std::size_t r = 0; r < rows; ++r)
      delta[r] *= derivative(layer.activation, pre_[li][r], post_[li][r]);
    if (grads != nullptr) {  // dW += δ·xᵀ, db += δ
      for (std::size_t r = 0; r < rows; ++r) {
        grads->db[li][r] += delta[r];
        if (delta[r] == 0.0) continue;
        double* dw = grads->dw[li].data() + r * cols;
        for (std::size_t c = 0; c < cols; ++c) dw[c] += delta[r] * x[c];
      }
    }
    std::vector<double> below(cols, 0.0);  // Wᵀ·δ
    for (std::size_t r = 0; r < rows; ++r) {
      if (delta[r] == 0.0) continue;
      const double* w = layer.w.data() + r * cols;
      for (std::size_t c = 0; c < cols; ++c) below[c] += delta[r] * w[c];
    }
    delta = std::move(below);
  }
  return delta;
}

DdpgReference::DdpgReference(const DdpgAgent& fresh)
    : config_(fresh.config()),
      actor_layers_(layer_specs(config_.actor_hidden, config_.action_dim,
                                Activation::kTanh)),
      critic_layers_(
          layer_specs(config_.critic_hidden, 1, Activation::kLinear)),
      actor_(fresh.actor()),
      critic_(fresh.critic()),
      target_actor_(fresh.actor()),
      target_critic_(fresh.critic()),
      actor_opt_(actor_, config_.actor_lr),
      critic_opt_(critic_, config_.critic_lr) {
  GNFV_REQUIRE(fresh.train_steps() == 0,
               "DdpgReference: the agent has already trained");
}

TrainStats DdpgReference::train_step(ReplayInterface& replay, Rng& rng) {
  const Minibatch batch = replay.sample(config_.batch_size, rng);
  const std::size_t n = batch.size();
  const double inv_n = 1.0 / static_cast<double>(n);
  TrainStats stats;
  stats.indices = batch.indices;

  // --- critic update (Algorithm 2 lines 4-6) -------------------------------
  SampleNet target_actor(target_actor_, actor_layers_);
  SampleNet target_critic(target_critic_, critic_layers_);
  SampleNet critic(critic_, critic_layers_);
  Mlp::Gradients critic_grads = critic_.make_gradients();
  for (std::size_t i = 0; i < n; ++i) {
    const Transition& t = batch.transitions[i];
    // y_i = r_i + γ·Q'(x_{i+1}, μ'(x_{i+1}))  (zero bootstrap at terminal)
    double y = t.reward;
    if (!t.done) {
      const std::vector<double> next_action =
          target_actor.forward(t.next_state);
      y += config_.gamma *
           target_critic.forward(joined(t.next_state, next_action))[0];
    }
    double td = critic.forward(joined(t.state, t.action))[0] - y;
    stats.critic_loss += td * td;
    td = math_util::clamp(td, -config_.td_error_clip, config_.td_error_clip);
    stats.td_errors.push_back(std::fabs(td));
    // dL/dq for 0.5·w·td² (importance weight from PER).
    const double dq[1] = {td * batch.weights[i] * inv_n};
    (void)critic.backward(dq, &critic_grads);
  }
  stats.critic_loss *= inv_n;
  critic_opt_.step(critic_, critic_grads);

  // --- actor update through the updated critic (lines 7-8, Eq. 6) ----------
  SampleNet actor(actor_, actor_layers_);
  critic = SampleNet(critic_, critic_layers_);
  Mlp::Gradients actor_grads = actor_.make_gradients();
  const double one[1] = {1.0};
  for (std::size_t i = 0; i < n; ++i) {
    const Transition& t = batch.transitions[i];
    const std::vector<double> action = actor.forward(t.state);
    stats.actor_objective += critic.forward(joined(t.state, action))[0];
    // ∇_a Q: backprop 1.0 through the critic, slice the action block, and
    // descend on -Q.
    const std::vector<double> dq_dx = critic.backward(one, nullptr);
    std::vector<double> dq_da(config_.action_dim);
    for (std::size_t d = 0; d < config_.action_dim; ++d)
      dq_da[d] = -dq_dx[config_.state_dim + d] * inv_n;
    (void)actor.backward(dq_da, &actor_grads);
  }
  stats.actor_objective *= inv_n;
  actor_opt_.step(actor_, actor_grads);

  // --- target soft updates (Algorithm 2 lines 9-10) -------------------------
  target_critic_.soft_update_from(critic_, config_.tau);
  target_actor_.soft_update_from(actor_, config_.tau);
  return stats;
}

}  // namespace greennfv::rl
