#include "rl/ddpg.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "common/math_util.hpp"
#include "rl/checkpoint.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace greennfv::rl {

Mlp DdpgAgent::build_actor(const DdpgConfig& config, Rng& rng) {
  std::vector<LayerSpec> layers;
  for (const std::size_t units : config.actor_hidden)
    layers.push_back({units, Activation::kRelu});
  layers.push_back({config.action_dim, Activation::kTanh});
  return Mlp(config.state_dim, layers, rng);
}

Mlp DdpgAgent::build_critic(const DdpgConfig& config, Rng& rng) {
  std::vector<LayerSpec> layers;
  for (const std::size_t units : config.critic_hidden)
    layers.push_back({units, Activation::kRelu});
  layers.push_back({1, Activation::kLinear});
  return Mlp(config.state_dim + config.action_dim, layers, rng);
}

namespace {

/// Validates before any network is constructed so errors carry DDPG
/// context rather than an MLP-internal message.
const DdpgConfig& validated(const DdpgConfig& config) {
  GNFV_REQUIRE(config.state_dim > 0, "DDPG: zero state dim");
  GNFV_REQUIRE(config.action_dim > 0, "DDPG: zero action dim");
  GNFV_REQUIRE(config.gamma > 0.0 && config.gamma <= 1.0,
               "DDPG: gamma out of (0,1]");
  GNFV_REQUIRE(config.tau > 0.0 && config.tau <= 1.0,
               "DDPG: tau out of (0,1]");
  GNFV_REQUIRE(config.batch_size >= 1, "DDPG: zero batch size");
  return config;
}

}  // namespace

DdpgAgent::DdpgAgent(DdpgConfig config, std::uint64_t seed)
    : config_(validated(config)),
      init_rng_(seed),
      actor_(build_actor(config_, init_rng_)),
      critic_(build_critic(config_, init_rng_)),
      target_actor_(build_actor(config_, init_rng_)),
      target_critic_(build_critic(config_, init_rng_)),
      actor_opt_(actor_, config_.actor_lr),
      critic_opt_(critic_, config_.critic_lr) {
  // Targets start as exact copies (Algorithm 2 initialization).
  target_actor_.copy_from(actor_);
  target_critic_.copy_from(critic_);
  critic_grads_ = critic_.make_gradients();
  actor_grads_ = actor_.make_gradients();
  critic_scratch_ = critic_.make_gradients();
}

std::vector<double> DdpgAgent::act(std::span<const double> state) const {
  return actor_.forward(state);
}

void DdpgAgent::act_into(std::span<const double> state, ActScratch& scratch,
                         std::span<double> action) const {
  actor_.forward_into(state, scratch.ws, action);
}

std::vector<double> DdpgAgent::act_noisy(std::span<const double> state,
                                         NoiseProcess& noise,
                                         Rng& rng) const {
  std::vector<double> action(config_.action_dim);
  ActScratch scratch;
  act_noisy_into(state, noise, rng, scratch, action);
  return action;
}

void DdpgAgent::act_noisy_into(std::span<const double> state,
                               NoiseProcess& noise, Rng& rng,
                               ActScratch& scratch,
                               std::span<double> action) const {
  act_into(state, scratch, action);
  GNFV_ASSERT(noise.dim() == action.size(), "noise dimension mismatch");
  scratch.noise.resize(noise.dim());
  noise.sample_into(rng, scratch.noise);
  for (std::size_t i = 0; i < action.size(); ++i) {
    action[i] = math_util::clamp(action[i] + scratch.noise[i], -1.0, 1.0);
  }
}

std::vector<double> DdpgAgent::critic_input(
    std::span<const double> state, std::span<const double> action) const {
  std::vector<double> input;
  input.reserve(state.size() + action.size());
  input.insert(input.end(), state.begin(), state.end());
  input.insert(input.end(), action.begin(), action.end());
  return input;
}

void DdpgAgent::ensure_train_scratch(std::size_t n) {
  const std::size_t s = config_.state_dim;
  const std::size_t a = config_.action_dim;
  actor_ws_.input.resize(n, s);
  target_actor_ws_.input.resize(n, s);
  critic_ws_.input.resize(n, s + a);
  critic_pol_ws_.input.resize(n, s + a);
  target_critic_ws_.input.resize(n, s + a);
  y_.resize(n);
  dq_.resize(n, 1);
  dq_da_.resize(n, a);
  if (ones_.rows() != n) {
    ones_.resize(n, 1);
    ones_.fill(1.0);
  }
}

const TrainStats& DdpgAgent::train_step(ReplayInterface& replay, Rng& rng) {
  namespace mc = telemetry::metrics;
  static auto& c_steps = mc::counter("rl.train_steps");
  static auto& t_step = mc::counter("rl.phase.train_step_ns");
  static auto& t_targets = mc::counter("rl.phase.targets_ns");
  static auto& t_critic = mc::counter("rl.phase.critic_ns");
  static auto& t_actor = mc::counter("rl.phase.actor_ns");
  static auto& t_soft = mc::counter("rl.phase.soft_update_ns");
  c_steps.add();
  const telemetry::trace::Span step_span("rl/train_step", &t_step);
  GNFV_REQUIRE(replay.size() >= config_.batch_size,
               "DDPG::train_step: replay underfilled");
  replay.sample_into(config_.batch_size, rng, batch_);
  const std::size_t n = batch_.size();
  const double inv_n = 1.0 / static_cast<double>(n);
  const std::size_t s = config_.state_dim;
  const std::size_t a = config_.action_dim;
  ensure_train_scratch(n);

  stats_.td_errors.clear();
  stats_.indices.assign(batch_.indices.begin(), batch_.indices.end());

  // --- gather transitions straight into the batch matrices ------------------
  for (std::size_t i = 0; i < n; ++i) {
    const Transition& t = batch_.transitions[i];
    GNFV_ASSERT(t.state.size() == s && t.action.size() == a &&
                    t.next_state.size() == s,
                "train_step: transition dims disagree with config");
    double* xs = actor_ws_.input.data() + i * s;
    double* xn = target_actor_ws_.input.data() + i * s;
    double* ci = critic_ws_.input.data() + i * (s + a);
    for (std::size_t d = 0; d < s; ++d) {
      xs[d] = t.state[d];
      xn[d] = t.next_state[d];
      ci[d] = t.state[d];
    }
    for (std::size_t d = 0; d < a; ++d) ci[s + d] = t.action[d];
  }

  // --- passes 1+2: targets give y = r + γ·Q'(x', μ'(x')) --------------------
  // (Algorithm 2 line 5; done rows keep y = r, exactly the reference's
  // zero bootstrap at terminal.)
  {
    const telemetry::trace::Span targets_span("rl/targets", &t_targets);
    const Matrix& next_actions =
        target_actor_.forward_batch(target_actor_ws_);
    for (std::size_t i = 0; i < n; ++i) {
      double* tc = target_critic_ws_.input.data() + i * (s + a);
      const double* xn = target_actor_ws_.input.data() + i * s;
      const double* na = next_actions.data() + i * a;
      for (std::size_t d = 0; d < s; ++d) tc[d] = xn[d];
      for (std::size_t d = 0; d < a; ++d) tc[s + d] = na[d];
    }
    const Matrix& next_q = target_critic_.forward_batch(target_critic_ws_);
    for (std::size_t i = 0; i < n; ++i) {
      double y = batch_.transitions[i].reward;
      if (!batch_.transitions[i].done) y += config_.gamma * next_q(i, 0);
      y_[i] = y;
    }
  }

  // --- pass 3: critic fwd+bwd (Algorithm 2 lines 4-6) -----------------------
  {
    const telemetry::trace::Span critic_span("rl/critic_update", &t_critic);
    const Matrix& q = critic_.forward_batch(critic_ws_);
    double critic_loss = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double td = q(i, 0) - y_[i];
      critic_loss += td * td;
      td =
          math_util::clamp(td, -config_.td_error_clip, config_.td_error_clip);
      stats_.td_errors.push_back(std::fabs(td));
      // dL/dq for 0.5·w·td² (importance weight from PER).
      dq_(i, 0) = td * batch_.weights[i] * inv_n;
    }
    stats_.critic_loss = critic_loss * inv_n;
    (void)critic_.backward_batch(dq_, critic_ws_, critic_grads_);
    critic_opt_.step(critic_, critic_grads_);
  }

  // --- pass 4: actor fwd+bwd via the critic's ∂Q/∂a slice (lines 7-8) -------
  {
    const telemetry::trace::Span actor_span("rl/actor_update", &t_actor);
    const Matrix& policy_actions = actor_.forward_batch(actor_ws_);
    for (std::size_t i = 0; i < n; ++i) {
      double* ci = critic_pol_ws_.input.data() + i * (s + a);
      const double* xs = actor_ws_.input.data() + i * s;
      const double* pa = policy_actions.data() + i * a;
      for (std::size_t d = 0; d < s; ++d) ci[d] = xs[d];
      for (std::size_t d = 0; d < a; ++d) ci[s + d] = pa[d];
    }
    const Matrix& q_policy = critic_.forward_batch(critic_pol_ws_);
    double objective = 0.0;
    for (std::size_t i = 0; i < n; ++i) objective += q_policy(i, 0);
    stats_.actor_objective = objective * inv_n;
    const Matrix& input_grad =
        critic_.backward_batch(ones_, critic_pol_ws_, critic_scratch_);
    // Gradient *ascent* on Q -> descend on -Q.
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t d = 0; d < a; ++d)
        dq_da_(i, d) = -input_grad(i, s + d) * inv_n;
    (void)actor_.backward_batch(dq_da_, actor_ws_, actor_grads_);
    actor_opt_.step(actor_, actor_grads_);
  }

  // --- target soft updates (Algorithm 2 lines 9-10) -------------------------
  {
    const telemetry::trace::Span soft_span("rl/soft_update", &t_soft);
    target_critic_.soft_update_from(critic_, config_.tau);
    target_actor_.soft_update_from(actor_, config_.tau);
  }

  ++train_steps_;
  return stats_;
}

TrainStats DdpgAgent::train_step_reference(ReplayInterface& replay,
                                           Rng& rng) {
  GNFV_REQUIRE(replay.size() >= config_.batch_size,
               "DDPG::train_step: replay underfilled");
  const Minibatch batch = replay.sample(config_.batch_size, rng);
  const auto n = batch.size();
  const double inv_n = 1.0 / static_cast<double>(n);

  TrainStats stats;
  stats.td_errors.reserve(n);
  stats.indices = batch.indices;

  // --- critic update (Algorithm 2 lines 4-6) -------------------------------
  Mlp::Gradients critic_grads = critic_.make_gradients();
  critic_grads.zero();
  Mlp::Workspace ws;
  for (std::size_t i = 0; i < n; ++i) {
    const Transition& t = batch.transitions[i];
    // y_i = r_i + γ·Q'(x_{i+1}, μ'(x_{i+1}))  (zero bootstrap at terminal)
    double y = t.reward;
    if (!t.done) {
      const std::vector<double> next_action =
          target_actor_.forward(t.next_state);
      const double next_q =
          target_critic_.forward(critic_input(t.next_state, next_action))[0];
      y += config_.gamma * next_q;
    }
    const std::vector<double> input = critic_input(t.state, t.action);
    const double q = critic_.forward(input, ws)[0];
    double td = q - y;
    stats.critic_loss += td * td;
    td = math_util::clamp(td, -config_.td_error_clip, config_.td_error_clip);
    stats.td_errors.push_back(std::fabs(td));
    // dL/dq for 0.5·w·td² (importance weight from PER).
    const double dq = td * batch.weights[i] * inv_n;
    const double grad[1] = {dq};
    (void)critic_.backward(std::span<const double>(grad, 1), ws,
                           critic_grads);
  }
  stats.critic_loss *= inv_n;
  critic_opt_.step(critic_, critic_grads);

  // --- actor update (Algorithm 2 lines 7-8, Eq. 6) --------------------------
  Mlp::Gradients actor_grads = actor_.make_gradients();
  actor_grads.zero();
  Mlp::Workspace actor_ws;
  Mlp::Workspace critic_ws;
  Mlp::Gradients critic_scratch = critic_.make_gradients();  // discarded
  for (std::size_t i = 0; i < n; ++i) {
    const Transition& t = batch.transitions[i];
    const std::vector<double> action = actor_.forward(t.state, actor_ws);
    const std::vector<double> input = critic_input(t.state, action);
    const double q = critic_.forward(input, critic_ws)[0];
    stats.actor_objective += q;
    // ∇_a Q: backprop 1.0 through the critic, slice the action block.
    critic_scratch.zero();
    const double one[1] = {1.0};
    const std::vector<double> input_grad = critic_.backward(
        std::span<const double>(one, 1), critic_ws, critic_scratch);
    // Gradient *ascent* on Q -> descend on -Q.
    std::vector<double> dq_da(config_.action_dim);
    for (std::size_t d = 0; d < config_.action_dim; ++d)
      dq_da[d] = -input_grad[config_.state_dim + d] * inv_n;
    (void)actor_.backward(dq_da, actor_ws, actor_grads);
  }
  stats.actor_objective *= inv_n;
  actor_opt_.step(actor_, actor_grads);

  // --- target soft updates (Algorithm 2 lines 9-10) -------------------------
  target_critic_.soft_update_from(critic_, config_.tau);
  target_actor_.soft_update_from(actor_, config_.tau);

  ++train_steps_;
  return stats;
}

std::vector<double> DdpgAgent::actor_parameters() const {
  return actor_.parameters();
}

void DdpgAgent::set_actor_parameters(std::span<const double> params) {
  actor_.set_parameters(params);
}

void DdpgAgent::scale_learning_rates(double factor) {
  GNFV_REQUIRE(factor > 0.0, "scale_learning_rates: factor must be > 0");
  actor_opt_.set_learning_rate(actor_opt_.learning_rate() * factor);
  critic_opt_.set_learning_rate(critic_opt_.learning_rate() * factor);
}

void DdpgAgent::save_actor(const std::string& path) const {
  Checkpoint checkpoint;
  checkpoint.tag = "greennfv-actor";
  checkpoint.input_dim = config_.state_dim;
  checkpoint.output_dim = config_.action_dim;
  checkpoint.parameters = actor_.parameters();
  save_checkpoint(path, checkpoint);
}

void DdpgAgent::load_actor(const std::string& path) {
  const Checkpoint checkpoint = load_checkpoint(path);
  GNFV_REQUIRE(checkpoint.input_dim == config_.state_dim &&
                   checkpoint.output_dim == config_.action_dim,
               "load_actor: checkpoint dims do not match this agent");
  GNFV_REQUIRE(checkpoint.parameters.size() == actor_.num_parameters(),
               "load_actor: parameter count mismatch");
  actor_.set_parameters(checkpoint.parameters);
  // Deployment-time restores also reset the target copy so continued
  // training starts from the restored policy.
  target_actor_.copy_from(actor_);
}

}  // namespace greennfv::rl
