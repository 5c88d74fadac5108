#include "rl/tensor.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace greennfv::rl {
namespace {

TEST(Matrix, IndexingRowMajor) {
  Matrix m(2, 3);
  m(0, 0) = 1.0;
  m(0, 2) = 3.0;
  m(1, 1) = 5.0;
  EXPECT_DOUBLE_EQ(m.data()[0], 1.0);
  EXPECT_DOUBLE_EQ(m.data()[2], 3.0);
  EXPECT_DOUBLE_EQ(m.data()[4], 5.0);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
}

TEST(Matrix, RowSpan) {
  Matrix m(2, 2);
  m(1, 0) = 7.0;
  m(1, 1) = 8.0;
  const auto row = m.row(1);
  EXPECT_DOUBLE_EQ(row[0], 7.0);
  EXPECT_DOUBLE_EQ(row[1], 8.0);
}

TEST(Matrix, XavierBounds) {
  Rng rng(1);
  Matrix m(64, 64);
  m.xavier_init(rng);
  const double bound = std::sqrt(6.0 / 128.0);
  double sum_sq = 0.0;
  for (const double w : m.flat()) {
    EXPECT_GE(w, -bound);
    EXPECT_LE(w, bound);
    sum_sq += w * w;
  }
  EXPECT_GT(std::sqrt(sum_sq), 0.1);  // not all zero
}

TEST(Matrix, UniformInitBounds) {
  Rng rng(2);
  Matrix m(10, 10);
  m.uniform_init(rng, 3e-3);
  for (const double w : m.flat()) EXPECT_LE(std::fabs(w), 3e-3);
}

TEST(Kernels, MatvecKnownValues) {
  // Five rows: one four-row block and the one-row tail.
  // [1 2 3; 4 5 6; ...; 13 14 15] * [1;1;1] + [10;...;50]
  Matrix w(5, 3);
  for (std::size_t e = 0; e < w.size(); ++e)
    w.data()[e] = static_cast<double>(e + 1);
  const std::vector<double> x = {1, 1, 1};
  const std::vector<double> b = {10, 20, 30, 40, 50};
  std::vector<double> y(5);
  matvec4(w, x, b, y);
  const double want[] = {16.0, 35.0, 54.0, 73.0, 92.0};
  for (std::size_t r = 0; r < 5; ++r) EXPECT_DOUBLE_EQ(y[r], want[r]);
}

}  // namespace
}  // namespace greennfv::rl
