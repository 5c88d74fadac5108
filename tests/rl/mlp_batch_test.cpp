#include "rl/mlp.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "tests/support/ddpg_reference.hpp"

/// Batched Mlp entry points versus the per-sample oracle (SampleNet, in
/// tests/support): forward_batch and forward_into must reproduce its
/// row-wise forward exactly, backward_batch must accumulate the same
/// minibatch gradients, and input_grad_batch the same input gradients, as
/// its backward over the samples in batch order. "Exactly" means equal
/// IEEE-754 bit patterns, not EXPECT_DOUBLE_EQ's four-ULP window.

namespace greennfv::rl {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

std::vector<LayerSpec> tanh_net() {
  return {{13, Activation::kRelu},
          {7, Activation::kTanh},
          {3, Activation::kLinear}};
}

/// Every weight and bias from [-1, 1]: zero biases hide the bias seed.
Mlp random_net(std::size_t input_dim, const std::vector<LayerSpec>& layers,
               Rng& rng) {
  Mlp net(input_dim, layers, rng);
  std::vector<double> params = net.parameters();
  for (double& p : params) p = rng.uniform(-1.0, 1.0);
  net.set_parameters(params);
  return net;
}

Matrix random_batch(std::size_t n, std::size_t dim, Rng& rng) {
  Matrix x(n, dim);
  for (double& v : x.flat()) v = rng.uniform(-1.0, 1.0);
  return x;
}

TEST(MlpBatch, ForwardMatchesPerSampleRows) {
  Rng rng(1);
  const Mlp net = random_net(5, tanh_net(), rng);
  const Matrix x = random_batch(9, 5, rng);

  Mlp::BatchWorkspace ws;
  const Matrix& y = net.forward_batch(x, ws);
  ASSERT_EQ(y.rows(), 9u);
  ASSERT_EQ(y.cols(), 3u);

  SampleNet sample(net, tanh_net());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    const std::vector<double> yi = sample.forward(x.row(i));
    for (std::size_t j = 0; j < yi.size(); ++j)
      EXPECT_EQ(bits(y(i, j)), bits(yi[j]));
  }
}

TEST(MlpBatch, ForwardIntoMatchesForward) {
  Rng rng(2);
  const Mlp net = random_net(4, tanh_net(), rng);
  const std::vector<double> x = {0.1, -0.7, 0.4, 0.9};
  Mlp::Workspace ws;
  std::vector<double> out(3);
  net.forward_into(x, ws, out);
  const std::vector<double> want = SampleNet(net, tanh_net()).forward(x);
  for (std::size_t j = 0; j < out.size(); ++j)
    EXPECT_EQ(bits(out[j]), bits(want[j]));
}

TEST(MlpBatch, BackwardMatchesPerSampleAccumulation) {
  Rng rng(3);
  const Mlp net = random_net(6, tanh_net(), rng);
  const std::size_t n = 11;
  const Matrix x = random_batch(n, 6, rng);
  const Matrix dy = random_batch(n, 3, rng);

  // Batched pass.
  Mlp::BatchWorkspace bws;
  (void)net.forward_batch(x, bws);
  Mlp::Gradients batched = net.make_gradients();
  net.backward_batch(dy, bws, batched);
  const Matrix& dx = net.input_grad_batch(dy, bws);

  // Per-sample reference in the same batch order.
  SampleNet sample(net, tanh_net());
  Mlp::Gradients reference = net.make_gradients();
  Matrix dx_reference(n, 6);
  for (std::size_t i = 0; i < n; ++i) {
    (void)sample.forward(x.row(i));
    const std::vector<double> dxi = sample.backward(dy.row(i), &reference);
    for (std::size_t d = 0; d < dxi.size(); ++d) dx_reference(i, d) = dxi[d];
  }

  for (std::size_t l = 0; l < batched.dw.size(); ++l) {
    for (std::size_t e = 0; e < batched.dw[l].size(); ++e)
      EXPECT_EQ(bits(batched.dw[l].flat()[e]),
                bits(reference.dw[l].flat()[e]))
          << "dw layer " << l;
    for (std::size_t e = 0; e < batched.db[l].size(); ++e)
      EXPECT_EQ(bits(batched.db[l][e]), bits(reference.db[l][e]))
          << "db layer " << l;
  }
  ASSERT_EQ(dx.rows(), n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t d = 0; d < 6u; ++d)
      EXPECT_EQ(bits(dx(i, d)), bits(dx_reference(i, d)));
}

TEST(MlpBatch, SingleLayerNetwork) {
  Rng rng(4);
  const std::vector<LayerSpec> layers = {{2, Activation::kLinear}};
  const Mlp net = random_net(3, layers, rng);
  const Matrix x = random_batch(5, 3, rng);
  const Matrix dy = random_batch(5, 2, rng);

  Mlp::BatchWorkspace ws;
  (void)net.forward_batch(x, ws);
  Mlp::Gradients grads = net.make_gradients();
  net.backward_batch(dy, ws, grads);
  const Matrix& dx = net.input_grad_batch(dy, ws);
  ASSERT_EQ(dx.rows(), 5u);
  ASSERT_EQ(dx.cols(), 3u);

  SampleNet sample(net, layers);
  Mlp::Gradients ref = net.make_gradients();
  for (std::size_t i = 0; i < 5u; ++i) {
    (void)sample.forward(x.row(i));
    const std::vector<double> dxi = sample.backward(dy.row(i), &ref);
    for (std::size_t d = 0; d < dxi.size(); ++d)
      EXPECT_EQ(bits(dx(i, d)), bits(dxi[d]));
  }
  for (std::size_t e = 0; e < grads.dw[0].size(); ++e)
    EXPECT_EQ(bits(grads.dw[0].flat()[e]), bits(ref.dw[0].flat()[e]));
}

TEST(MlpBatch, WorkspaceReusableAcrossBatchSizes) {
  // A workspace sized for a large batch must produce correct results when
  // reused for a smaller one (resize never leaves stale geometry behind).
  Rng rng(5);
  const Mlp net = random_net(4, tanh_net(), rng);
  Mlp::BatchWorkspace ws;
  (void)net.forward_batch(random_batch(16, 4, rng), ws);

  const Matrix x = random_batch(3, 4, rng);
  const Matrix& y = net.forward_batch(x, ws);
  ASSERT_EQ(y.rows(), 3u);
  SampleNet sample(net, tanh_net());
  for (std::size_t i = 0; i < 3u; ++i) {
    const std::vector<double> yi = sample.forward(x.row(i));
    for (std::size_t j = 0; j < yi.size(); ++j)
      EXPECT_EQ(bits(y(i, j)), bits(yi[j]));
  }
}

}  // namespace
}  // namespace greennfv::rl
