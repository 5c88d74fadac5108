#include "rl/tensor.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

/// Units for the batched GEMM kernel set against naive triple loops. The
/// naive references accumulate the reduction index in increasing order —
/// the same order the blocked kernels guarantee — so comparisons are exact:
/// IEEE-754 bit patterns, not EXPECT_DOUBLE_EQ's four-ULP window. Shapes
/// include non-square cases, ragged ones around the kMR = 4 by kNR = 16
/// register tile, and the shapes the roster trains (batch 64, widths 1 to
/// 64).

namespace greennfv::rl {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (double& x : m.flat()) x = rng.uniform(-1.0, 1.0);
  return m;
}

Matrix naive_gemm(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) acc += a(i, k) * b(k, j);
      c(i, j) = acc;
    }
  return c;
}

Matrix naive_gemm_tn(const Matrix& a, const Matrix& b) {
  Matrix c(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.cols(); ++i)
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < a.rows(); ++k) acc += a(k, i) * b(k, j);
      c(i, j) = acc;
    }
  return c;
}

Matrix naive_gemm_nt(const Matrix& a, const Matrix& b,
                     std::span<const double> bias) {
  Matrix c(a.rows(), b.rows());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < b.rows(); ++j) {
      double acc = bias.empty() ? 0.0 : bias[j];
      for (std::size_t k = 0; k < a.cols(); ++k) acc += a(i, k) * b(j, k);
      c(i, j) = acc;
    }
  return c;
}

/// Zeroes every third element of `a`, the way ReLU zeroes activations
/// and their gradients: exact zeros the kernels must multiply through.
void sprinkle_zeros(Matrix& a) {
  auto flat = a.flat();
  for (std::size_t e = 0; e < flat.size(); e += 3) flat[e] = 0.0;
}

void expect_equal(const Matrix& got, const Matrix& want) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (std::size_t i = 0; i < got.rows(); ++i)
    for (std::size_t j = 0; j < got.cols(); ++j)
      ASSERT_EQ(bits(got(i, j)), bits(want(i, j)))
          << "at (" << i << "," << j << "): " << got(i, j) << " vs "
          << want(i, j);
}

struct Shape {
  std::size_t m, k, n;
};

// 1x1, tiny, tile-aligned, and ragged (rows not a multiple of 4, columns
// not a multiple of 16) shapes.
const Shape kShapes[] = {{1, 1, 1},   {3, 5, 7},   {8, 8, 8},
                         {16, 8, 24}, {17, 23, 9}, {13, 64, 5},
                         {64, 37, 41}, {9, 300, 11}};

// The layer widths the roster's networks have at batch 64: the critic's
// scalar head (1), state and action widths for 1 to 3 chains (4·c and 5·c),
// the 3-chain critic input (27) and the hidden width (64).
const std::size_t kRosterWidths[] = {1, 5, 10, 12, 15, 27, 64};
constexpr std::size_t kBatch = 64;
constexpr std::size_t kHidden = 64;

TEST(Gemm, MatchesNaiveAcrossShapes) {
  Rng rng(11);
  for (const Shape& sh : kShapes) {
    const Matrix a = random_matrix(sh.m, sh.k, rng);
    const Matrix b = random_matrix(sh.k, sh.n, rng);
    Matrix c(sh.m, sh.n);
    gemm(a, b, c);
    expect_equal(c, naive_gemm(a, b));
  }
}

TEST(Gemm, AccumulateAddsOntoExisting) {
  Rng rng(12);
  const Matrix a = random_matrix(10, 6, rng);
  const Matrix b = random_matrix(6, 14, rng);
  Matrix c(10, 14);
  gemm(a, b, c);
  Matrix twice = c;
  gemm(a, b, twice, /*accumulate=*/true);
  // Accumulate mode continues each element's running sum in k order on top
  // of the existing value (the gradient-accumulation semantics), so the
  // expected value folds the second pass onto the first incrementally.
  for (std::size_t i = 0; i < c.rows(); ++i)
    for (std::size_t j = 0; j < c.cols(); ++j) {
      double acc = c(i, j);
      for (std::size_t k = 0; k < a.cols(); ++k) acc += a(i, k) * b(k, j);
      EXPECT_EQ(bits(twice(i, j)), bits(acc)) << "at (" << i << "," << j
                                              << ")";
    }
}

TEST(Gemm, RosterShapesMatchNaive) {
  // Backprop's dX = dY·W at batch 64: a width-w layer's delta into the
  // hidden layer, and a hidden delta into a width-w input.
  Rng rng(14);
  for (const std::size_t w : kRosterWidths) {
    SCOPED_TRACE(w);
    for (const Shape sh :
         {Shape{kBatch, w, kHidden}, Shape{kBatch, kHidden, w}}) {
      const Matrix a = random_matrix(sh.m, sh.k, rng);
      const Matrix b = random_matrix(sh.k, sh.n, rng);
      Matrix c(sh.m, sh.n);
      gemm(a, b, c);
      expect_equal(c, naive_gemm(a, b));
    }
  }
}

TEST(Gemm, ZerosInAOnRaggedTilesMatchNaive) {
  // ReLU backprop produces many exact zeros in A. Every tile, ragged ones
  // included, multiplies them through, as the naive loop does.
  Rng rng(15);
  for (const Shape& sh : kShapes) {
    Matrix a = random_matrix(sh.m, sh.k, rng);
    sprinkle_zeros(a);
    const Matrix b = random_matrix(sh.k, sh.n, rng);
    Matrix c(sh.m, sh.n);
    gemm(a, b, c);
    expect_equal(c, naive_gemm(a, b));
  }
}

TEST(GemmTn, MatchesNaiveAcrossShapes) {
  Rng rng(21);
  for (const Shape& sh : kShapes) {
    // A: k×m (batch-major), B: k×n, C: m×n.
    const Matrix a = random_matrix(sh.k, sh.m, rng);
    const Matrix b = random_matrix(sh.k, sh.n, rng);
    Matrix c(sh.m, sh.n);
    gemm_tn(a, b, c);
    expect_equal(c, naive_gemm_tn(a, b));
  }
}

TEST(GemmTn, RosterShapesMatchNaive) {
  // The weight gradient dW = dYᵀ·X at batch 64: m = w covers the critic
  // head (m = 1) and the 3-chain actor head (m = 15); n = w covers the
  // input layers.
  Rng rng(23);
  for (const std::size_t w : kRosterWidths) {
    SCOPED_TRACE(w);
    for (const auto& [m, n] : {std::pair{w, kHidden}, std::pair{kHidden, w}}) {
      Matrix a = random_matrix(kBatch, m, rng);
      sprinkle_zeros(a);
      const Matrix b = random_matrix(kBatch, n, rng);
      Matrix c(m, n);
      gemm_tn(a, b, c);
      expect_equal(c, naive_gemm_tn(a, b));
    }
  }
}

TEST(GemmTn, AccumulateMatchesPerSampleOuterProducts) {
  // The contract behind batched-equals-reference: gemm_tn in accumulate
  // mode produces exactly the same floating-point sums as sample-by-sample
  // accumulate_outer calls.
  Rng rng(22);
  const std::size_t batch = 19, out = 11, in = 13;
  const Matrix dy = random_matrix(batch, out, rng);
  const Matrix x = random_matrix(batch, in, rng);

  Matrix dw_batched(out, in);
  gemm_tn(dy, x, dw_batched, /*accumulate=*/true);

  Matrix dw_reference(out, in);
  for (std::size_t s = 0; s < batch; ++s)
    accumulate_outer(dw_reference, dy.row(s), x.row(s));

  expect_equal(dw_batched, dw_reference);
}

TEST(GemmNt, MatchesNaiveAcrossShapes) {
  Rng rng(31);
  for (const Shape& sh : kShapes) {
    // A: m×k, B: n×k, C: m×n.
    const Matrix a = random_matrix(sh.m, sh.k, rng);
    const Matrix b = random_matrix(sh.n, sh.k, rng);
    Matrix c(sh.m, sh.n);
    gemm_nt(a, b, c);
    expect_equal(c, naive_gemm_nt(a, b, {}));
  }
}

TEST(GemmNt, RosterShapesMatchNaive) {
  // The batched forward Y = X·Wᵀ + b at batch 64: a width-w input into the
  // hidden layer, and the hidden layer into a width-w head.
  Rng rng(34);
  for (const std::size_t w : kRosterWidths) {
    SCOPED_TRACE(w);
    for (const Shape sh :
         {Shape{kBatch, w, kHidden}, Shape{kBatch, kHidden, w}}) {
      Matrix a = random_matrix(sh.m, sh.k, rng);
      sprinkle_zeros(a);
      const Matrix b = random_matrix(sh.n, sh.k, rng);
      std::vector<double> bias(sh.n);
      for (double& v : bias) v = rng.uniform(-1.0, 1.0);
      Matrix c(sh.m, sh.n);
      gemm_nt(a, b, c, bias);
      expect_equal(c, naive_gemm_nt(a, b, bias));
    }
  }
}

TEST(GemmNt, ZeroRowsOverNegativeZeroBiasMatchNaive) {
  // A -0.0 seed is where multiplying a zero through differs from skipping
  // it: -0.0 + (+0.0) is +0.0. Rows 1 and 5 of A are zero, in a full and a
  // ragged row slab, across a full and a ragged column strip.
  Rng rng(35);
  Matrix a = random_matrix(6, 10, rng);
  for (std::size_t k = 0; k < a.cols(); ++k) {
    a(1, k) = 0.0;
    a(5, k) = 0.0;
  }
  const Matrix b = random_matrix(21, 10, rng);
  const std::vector<double> bias(21, -0.0);
  Matrix c(6, 21);
  gemm_nt(a, b, c, bias);
  expect_equal(c, naive_gemm_nt(a, b, bias));
}

TEST(GemmNt, WidthOneOutputMatchesNaive) {
  // One output column (the critic head) takes its own path: rows below,
  // at and past its eight-row blocks, exact zeros in A, and a -0.0 seed
  // under an all-zero row.
  Rng rng(36);
  for (const std::size_t m : {1, 7, 8, 9, 17, 64}) {
    for (const std::size_t k : {1, 5, 64}) {
      SCOPED_TRACE(testing::Message() << m << "x" << k);
      Matrix a = random_matrix(m, k, rng);
      sprinkle_zeros(a);
      for (std::size_t t = 0; t < k; ++t) a(m / 2, t) = 0.0;
      const Matrix b = random_matrix(1, k, rng);
      for (const double seed : {rng.uniform(-1.0, 1.0), -0.0}) {
        const std::vector<double> bias = {seed};
        Matrix c(m, 1);
        gemm_nt(a, b, c, bias);
        expect_equal(c, naive_gemm_nt(a, b, bias));
      }
      Matrix c(m, 1);
      gemm_nt(a, b, c);
      expect_equal(c, naive_gemm_nt(a, b, {}));
    }
  }
}

TEST(GemmNt, BiasSeedsEveryOutputElement) {
  Rng rng(32);
  const Matrix a = random_matrix(6, 10, rng);
  const Matrix b = random_matrix(9, 10, rng);
  std::vector<double> bias(9);
  for (double& v : bias) v = rng.uniform(-2.0, 2.0);
  Matrix c(6, 9);
  gemm_nt(a, b, c, bias);
  expect_equal(c, naive_gemm_nt(a, b, bias));
}

TEST(GemmNt, MatchesMatvecBitForBit) {
  // The batched forward must reproduce the per-sample forward's sums
  // exactly: same accumulator seed (the bias), same k order.
  Rng rng(33);
  const std::size_t batch = 5, in = 23, out = 17;
  const Matrix x = random_matrix(batch, in, rng);
  const Matrix w = random_matrix(out, in, rng);
  std::vector<double> bias(out);
  for (double& v : bias) v = rng.uniform(-1.0, 1.0);

  Matrix y(batch, out);
  gemm_nt(x, w, y, bias);

  std::vector<double> y_row(out);
  for (std::size_t s = 0; s < batch; ++s) {
    matvec(w, x.row(s), bias, y_row);
    for (std::size_t j = 0; j < out; ++j)
      EXPECT_EQ(bits(y(s, j)), bits(y_row[j])) << "at (" << s << "," << j
                                               << ")";
  }
}

TEST(ColSums, AccumulatesRowsInOrder) {
  Rng rng(41);
  const Matrix a = random_matrix(13, 6, rng);
  std::vector<double> got(6, 0.5);
  add_col_sums(a, got);

  std::vector<double> want(6, 0.5);
  for (std::size_t i = 0; i < a.rows(); ++i) axpy(1.0, a.row(i), want);
  for (std::size_t j = 0; j < 6; ++j) EXPECT_EQ(bits(got[j]), bits(want[j]));
}

TEST(MatrixResize, ReshapesWithoutLosingCapacity) {
  Matrix m(8, 8);
  m.fill(3.0);
  const double* before = m.data();
  m.resize(4, 4);
  EXPECT_EQ(m.rows(), 4u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.data(), before);  // shrink keeps the buffer
  m.resize(8, 8);
  EXPECT_EQ(m.size(), 64u);     // grow back within capacity
  EXPECT_EQ(m.data(), before);
}

}  // namespace
}  // namespace greennfv::rl
