#include "rl/mlp.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace greennfv::rl {
namespace {

Mlp small_net(Activation hidden_act, Rng& rng) {
  return Mlp(3, {{8, hidden_act}, {4, hidden_act}, {2, Activation::kLinear}},
             rng);
}

TEST(Mlp, ShapesAndParameterCount) {
  Rng rng(1);
  const Mlp net = small_net(Activation::kTanh, rng);
  EXPECT_EQ(net.input_dim(), 3u);
  EXPECT_EQ(net.output_dim(), 2u);
  EXPECT_EQ(net.num_layers(), 3u);
  // (3*8+8) + (8*4+4) + (4*2+2) = 32 + 36 + 10
  EXPECT_EQ(net.num_parameters(), 78u);
  const auto out = net.forward(std::vector<double>{0.1, -0.2, 0.3});
  EXPECT_EQ(out.size(), 2u);
}

TEST(Mlp, ParameterRoundTrip) {
  Rng rng(2);
  Mlp net = small_net(Activation::kRelu, rng);
  const auto params = net.parameters();
  Mlp other = small_net(Activation::kRelu, rng);  // different init
  other.set_parameters(params);
  const std::vector<double> x = {0.5, -1.0, 0.25};
  const auto a = net.forward(x);
  const auto b = other.forward(x);
  EXPECT_DOUBLE_EQ(a[0], b[0]);
  EXPECT_DOUBLE_EQ(a[1], b[1]);
}

class GradientCheck : public ::testing::TestWithParam<Activation> {};

TEST_P(GradientCheck, BackwardMatchesFiniteDifferences) {
  // A batch of one through the batched passes the trainer runs:
  // backward_batch's parameter gradients and input_grad_batch's dL/dX
  // against central differences of the inference forward pass.
  Rng rng(3);
  Mlp net = small_net(GetParam(), rng);
  const std::vector<double> x = {0.3, -0.7, 0.9};
  // Loss = sum(output): output_grad = ones.
  Matrix ones(1, 2);
  ones.fill(1.0);

  Mlp::BatchWorkspace ws;
  ws.input.resize(1, x.size());
  for (std::size_t i = 0; i < x.size(); ++i) ws.input(0, i) = x[i];
  (void)net.forward_batch(ws);
  Mlp::Gradients grads = net.make_gradients();
  net.backward_batch(ones, ws, grads);
  const Matrix& input_grad = net.input_grad_batch(ones, ws);

  // Check dL/dinput against central differences.
  const double eps = 1e-6;
  for (std::size_t i = 0; i < x.size(); ++i) {
    auto xp = x;
    auto xm = x;
    xp[i] += eps;
    xm[i] -= eps;
    const auto op = net.forward(xp);
    const auto om = net.forward(xm);
    const double fd =
        ((op[0] + op[1]) - (om[0] + om[1])) / (2.0 * eps);
    EXPECT_NEAR(input_grad(0, i), fd, 1e-5)
        << "input grad mismatch at dim " << i;
  }

  // Check a sampling of parameter gradients against finite differences.
  auto params = net.parameters();
  std::vector<std::size_t> probe = {0, 5, 17, 40, params.size() - 1};
  // Map flat parameter perturbations through set_parameters.
  for (const std::size_t p : probe) {
    auto plus = params;
    auto minus = params;
    plus[p] += eps;
    minus[p] -= eps;
    Mlp net_p = net;
    net_p.set_parameters(plus);
    Mlp net_m = net;
    net_m.set_parameters(minus);
    const auto op = net_p.forward(x);
    const auto om = net_m.forward(x);
    const double fd = ((op[0] + op[1]) - (om[0] + om[1])) / (2.0 * eps);
    // Locate the analytic gradient at the same flat offset.
    std::vector<double> flat_grads;
    for (std::size_t l = 0; l < grads.dw.size(); ++l) {
      flat_grads.insert(flat_grads.end(), grads.dw[l].flat().begin(),
                        grads.dw[l].flat().end());
      flat_grads.insert(flat_grads.end(), grads.db[l].begin(),
                        grads.db[l].end());
    }
    EXPECT_NEAR(flat_grads[p], fd, 1e-5) << "param grad mismatch at " << p;
  }
}

INSTANTIATE_TEST_SUITE_P(Activations, GradientCheck,
                         ::testing::Values(Activation::kTanh,
                                           Activation::kSigmoid,
                                           Activation::kRelu));

TEST(Mlp, SoftUpdateBlends) {
  Rng rng(4);
  Mlp a = small_net(Activation::kTanh, rng);
  Mlp b = small_net(Activation::kTanh, rng);
  const auto pa = a.parameters();
  const auto pb = b.parameters();
  Mlp blended = b;
  blended.soft_update_from(a, 0.25);
  const auto pm = blended.parameters();
  for (std::size_t i = 0; i < pm.size(); ++i) {
    EXPECT_NEAR(pm[i], 0.25 * pa[i] + 0.75 * pb[i], 1e-12);
  }
  Mlp copied = b;
  copied.copy_from(a);
  const auto pc = copied.parameters();
  for (std::size_t i = 0; i < pc.size(); ++i) EXPECT_DOUBLE_EQ(pc[i], pa[i]);
}

TEST(Mlp, AdamFitsLinearRegression) {
  // y = 2x1 - 3x2 + 1, learnable by a linear "network".
  Rng rng(5);
  Mlp net(2, {{1, Activation::kLinear}}, rng);
  AdamOptimizer opt(net, 0.05);
  Rng data_rng(6);
  Mlp::BatchWorkspace ws;
  ws.input.resize(16, 2);
  Matrix dy(16, 1);
  Mlp::Gradients grads = net.make_gradients();
  double final_loss = 1e9;
  for (int step = 0; step < 800; ++step) {
    for (std::size_t i = 0; i < 16; ++i) {
      ws.input(i, 0) = data_rng.uniform(-1, 1);
      ws.input(i, 1) = data_rng.uniform(-1, 1);
    }
    const Matrix& out = net.forward_batch(ws);
    double loss = 0.0;
    for (std::size_t i = 0; i < 16; ++i) {
      const double target = 2.0 * ws.input(i, 0) - 3.0 * ws.input(i, 1) + 1.0;
      const double err = out(i, 0) - target;
      loss += err * err;
      dy(i, 0) = 2.0 * err / 16.0;
    }
    net.backward_batch(dy, ws, grads);
    opt.step(net, grads);
    final_loss = loss / 16.0;
  }
  EXPECT_LT(final_loss, 1e-3);
  EXPECT_GT(opt.steps_taken(), 0);
}

TEST(Mlp, RejectsBadShapes) {
  Rng rng(8);
  EXPECT_DEATH(Mlp(0, {{4, Activation::kTanh}}, rng), "zero input");
  EXPECT_DEATH(Mlp(4, {}, rng), "no layers");
  Mlp net = small_net(Activation::kTanh, rng);
  EXPECT_DEATH((void)net.forward(std::vector<double>{1.0}), "input dim");
}

TEST(ActivationNames, AllCovered) {
  EXPECT_EQ(to_string(Activation::kRelu), "relu");
  EXPECT_EQ(to_string(Activation::kTanh), "tanh");
  EXPECT_EQ(to_string(Activation::kLinear), "linear");
  EXPECT_EQ(to_string(Activation::kSigmoid), "sigmoid");
}

}  // namespace
}  // namespace greennfv::rl
