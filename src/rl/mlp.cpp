#include "rl/mlp.hpp"

#include <cmath>

namespace greennfv::rl {

std::string to_string(Activation act) {
  switch (act) {
    case Activation::kLinear:  return "linear";
    case Activation::kRelu:    return "relu";
    case Activation::kTanh:    return "tanh";
    case Activation::kSigmoid: return "sigmoid";
  }
  return "?";
}

Mlp::Mlp(std::size_t input_dim, const std::vector<LayerSpec>& layers,
         Rng& rng)
    : input_dim_(input_dim) {
  GNFV_REQUIRE(input_dim > 0, "Mlp: zero input dim");
  GNFV_REQUIRE(!layers.empty(), "Mlp: no layers");
  std::size_t fan_in = input_dim;
  for (std::size_t l = 0; l < layers.size(); ++l) {
    GNFV_REQUIRE(layers[l].units > 0, "Mlp: zero-unit layer");
    Matrix w(layers[l].units, fan_in);
    if (l + 1 == layers.size()) {
      w.uniform_init(rng, 3e-3);  // DDPG's small output init
    } else {
      w.xavier_init(rng);
    }
    weights_.push_back(std::move(w));
    biases_.emplace_back(layers[l].units, 0.0);
    activations_.push_back(layers[l].activation);
    fan_in = layers[l].units;
  }
}

std::size_t Mlp::output_dim() const { return biases_.back().size(); }

std::size_t Mlp::num_parameters() const {
  std::size_t n = 0;
  for (std::size_t l = 0; l < weights_.size(); ++l)
    n += weights_[l].size() + biases_[l].size();
  return n;
}

void Mlp::apply_activation(Activation act, std::span<double> v) {
  switch (act) {
    case Activation::kLinear:
      return;
    case Activation::kRelu:
      for (double& x : v) x = x > 0.0 ? x : 0.0;
      return;
    case Activation::kTanh:
      for (double& x : v) x = std::tanh(x);
      return;
    case Activation::kSigmoid:
      for (double& x : v) x = 1.0 / (1.0 + std::exp(-x));
      return;
  }
}

void Mlp::scale_by_activation_grad(Activation act, std::span<double> d,
                                   std::span<const double> pre,
                                   std::span<const double> post) {
  // One loop per activation, so each is branch-free and vectorizes (a
  // per-element switch left ReLU a data-dependent branch).
  switch (act) {
    case Activation::kLinear:
      return;  // f' = 1
    case Activation::kRelu:
      for (std::size_t u = 0; u < d.size(); ++u)
        d[u] *= pre[u] > 0.0 ? 1.0 : 0.0;
      return;
    case Activation::kTanh:
      for (std::size_t u = 0; u < d.size(); ++u)
        d[u] *= 1.0 - post[u] * post[u];
      return;
    case Activation::kSigmoid:
      for (std::size_t u = 0; u < d.size(); ++u)
        d[u] *= post[u] * (1.0 - post[u]);
      return;
  }
}

std::vector<double> Mlp::forward(std::span<const double> input) const {
  Workspace ws;
  std::vector<double> out(output_dim());
  forward_into(input, ws, out);
  return out;
}

void Mlp::forward_into(std::span<const double> input, Workspace& ws,
                       std::span<double> out) const {
  GNFV_REQUIRE(input.size() == input_dim_, "Mlp::forward: input dim");
  GNFV_REQUIRE(out.size() == output_dim(), "Mlp::forward_into: output dim");
  ws.post.resize(weights_.size());
  std::span<const double> x = input;
  for (std::size_t l = 0; l < weights_.size(); ++l) {
    ws.post[l].resize(weights_[l].rows());
    matvec4(weights_[l], x, biases_[l], ws.post[l]);
    apply_activation(activations_[l], ws.post[l]);
    x = ws.post[l];
  }
  const std::vector<double>& y = ws.post.back();
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = y[i];
}

const Matrix& Mlp::forward_batch(BatchWorkspace& ws) const {
  GNFV_REQUIRE(ws.input.cols() == input_dim_,
               "Mlp::forward_batch: input dim");
  GNFV_REQUIRE(ws.input.rows() > 0, "Mlp::forward_batch: empty batch");
  const std::size_t n = ws.input.rows();
  ws.pre.resize(weights_.size());
  ws.post.resize(weights_.size());

  const Matrix* x = &ws.input;
  for (std::size_t l = 0; l < weights_.size(); ++l) {
    ws.pre[l].resize(n, weights_[l].rows());
    gemm_nt(*x, weights_[l], ws.pre[l], biases_[l]);
    ws.post[l] = ws.pre[l];
    apply_activation(activations_[l], ws.post[l].flat());
    x = &ws.post[l];
  }
  return ws.post.back();
}

const Matrix& Mlp::forward_batch(const Matrix& x, BatchWorkspace& ws) const {
  ws.input = x;
  return forward_batch(ws);
}

void Mlp::backward_batch(const Matrix& output_grad, BatchWorkspace& ws,
                         Gradients& grads) const {
  GNFV_REQUIRE(grads.dw.size() == weights_.size(),
               "Mlp::backward_batch: gradient shape");
  backward_sweep(output_grad, ws, &grads);
}

const Matrix& Mlp::input_grad_batch(const Matrix& output_grad,
                                    BatchWorkspace& ws) const {
  backward_sweep(output_grad, ws, nullptr);
  return ws.dx;
}

void Mlp::backward_sweep(const Matrix& output_grad, BatchWorkspace& ws,
                         Gradients* grads) const {
  const std::size_t n = ws.input.rows();
  GNFV_REQUIRE(output_grad.rows() == n &&
                   output_grad.cols() == output_dim(),
               "Mlp batched backward: dY shape");
  GNFV_REQUIRE(ws.pre.size() == weights_.size(),
               "Mlp batched backward: stale workspace");
  ws.delta.resize(weights_.size());

  for (std::size_t li = weights_.size(); li-- > 0;) {
    Matrix& delta = ws.delta[li];
    if (li + 1 == weights_.size()) {
      delta = output_grad;
    }  // else: filled by the gemm of layer li+1 below.
    // delta holds dL/d(post[li]); convert to dL/d(pre[li]).
    scale_by_activation_grad(activations_[li], delta.flat(),
                             ws.pre[li].flat(), ws.post[li].flat());
    if (grads != nullptr) {
      const Matrix& layer_input = li == 0 ? ws.input : ws.post[li - 1];
      gemm_tn(delta, layer_input, grads->dw[li], /*accumulate=*/false);
      std::vector<double>& db = grads->db[li];
      db.assign(db.size(), 0.0);
      add_col_sums(delta, db);
    }
    // dL/d(post[li-1]) for the layer below; at layer 0 this is dL/dX,
    // which only the input-gradient sweep wants.
    if (li == 0 && grads != nullptr) break;
    Matrix& downstream = li == 0 ? ws.dx : ws.delta[li - 1];
    downstream.resize(n, weights_[li].cols());
    gemm(delta, weights_[li], downstream);
  }
}

Mlp::Gradients Mlp::make_gradients() const {
  Gradients grads;
  grads.dw.reserve(weights_.size());
  grads.db.reserve(biases_.size());
  for (std::size_t l = 0; l < weights_.size(); ++l) {
    grads.dw.emplace_back(weights_[l].rows(), weights_[l].cols());
    grads.db.emplace_back(biases_[l].size(), 0.0);
  }
  return grads;
}

std::vector<double> Mlp::parameters() const {
  std::vector<double> flat;
  flat.reserve(num_parameters());
  for (std::size_t l = 0; l < weights_.size(); ++l) {
    flat.insert(flat.end(), weights_[l].flat().begin(),
                weights_[l].flat().end());
    flat.insert(flat.end(), biases_[l].begin(), biases_[l].end());
  }
  return flat;
}

void Mlp::set_parameters(std::span<const double> params) {
  GNFV_REQUIRE(params.size() == num_parameters(),
               "Mlp::set_parameters: size mismatch");
  std::size_t cursor = 0;
  for (std::size_t l = 0; l < weights_.size(); ++l) {
    for (double& w : weights_[l].flat()) w = params[cursor++];
    for (double& b : biases_[l]) b = params[cursor++];
  }
}

void Mlp::soft_update_from(const Mlp& src, double tau) {
  GNFV_REQUIRE(num_parameters() == src.num_parameters(),
               "soft_update: incompatible networks");
  GNFV_REQUIRE(tau >= 0.0 && tau <= 1.0, "soft_update: tau out of range");
  for (std::size_t l = 0; l < weights_.size(); ++l) {
    auto dst_w = weights_[l].flat();
    auto src_w = src.weights_[l].flat();
    for (std::size_t i = 0; i < dst_w.size(); ++i)
      dst_w[i] = tau * src_w[i] + (1.0 - tau) * dst_w[i];
    for (std::size_t i = 0; i < biases_[l].size(); ++i)
      biases_[l][i] = tau * src.biases_[l][i] + (1.0 - tau) * biases_[l][i];
  }
}

void Mlp::copy_from(const Mlp& src) { soft_update_from(src, 1.0); }

AdamOptimizer::AdamOptimizer(const Mlp& model, double lr, double beta1,
                             double beta2, double epsilon)
    : lr_(lr), beta1_(beta1), beta2_(beta2), epsilon_(epsilon) {
  GNFV_REQUIRE(lr > 0.0, "Adam: lr must be positive");
  for (std::size_t l = 0; l < model.weights_.size(); ++l) {
    m_w_.emplace_back(model.weights_[l].rows(), model.weights_[l].cols());
    v_w_.emplace_back(model.weights_[l].rows(), model.weights_[l].cols());
    m_b_.emplace_back(model.biases_[l].size(), 0.0);
    v_b_.emplace_back(model.biases_[l].size(), 0.0);
  }
}

void AdamOptimizer::step(Mlp& model, const Mlp::Gradients& grads) {
  GNFV_REQUIRE(grads.dw.size() == model.weights_.size(),
               "Adam: gradient shape mismatch");
  ++t_;
  const double bias1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bias2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));

  const auto update = [&](double& param, double grad, double& m, double& v) {
    m = beta1_ * m + (1.0 - beta1_) * grad;
    v = beta2_ * v + (1.0 - beta2_) * grad * grad;
    const double m_hat = m / bias1;
    const double v_hat = v / bias2;
    param -= lr_ * m_hat / (std::sqrt(v_hat) + epsilon_);
  };

  for (std::size_t l = 0; l < model.weights_.size(); ++l) {
    auto w = model.weights_[l].flat();
    auto gw = grads.dw[l].flat();
    auto mw = m_w_[l].flat();
    auto vw = v_w_[l].flat();
    for (std::size_t i = 0; i < w.size(); ++i)
      update(w[i], gw[i], mw[i], vw[i]);
    auto& b = model.biases_[l];
    const auto& gb = grads.db[l];
    auto& mb = m_b_[l];
    auto& vb = v_b_[l];
    for (std::size_t i = 0; i < b.size(); ++i)
      update(b[i], gb[i], mb[i], vb[i]);
  }
}

}  // namespace greennfv::rl
