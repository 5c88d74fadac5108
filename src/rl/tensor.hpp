#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"

/// \file tensor.hpp
/// Dense row-major matrix, the matrix-vector kernel behind inference, and
/// the blocked BLAS-3 (GEMM) kernels behind training. Kept deliberately
/// small: the networks in GreenNFV are a few hundred units wide, where
/// cache blocking pays but a full BLAS dependency would not.
///
/// Determinism contract: every kernel accumulates each output element
/// over the reduction index k in strictly increasing order — blocking only
/// ever tiles the non-reduced dimensions — and adds every product, exact
/// zeros included, exactly as a naive loop does. A given seed therefore
/// produces bit-identical results run to run, and a batched pass
/// reproduces a per-sample loop's floating-point sums (the test oracle in
/// tests/support/ddpg_reference is that loop). The micro-kernel's vector
/// width follows the compile target, but a lane only ever holds a
/// different output element, so native and portable builds produce the
/// same bits.

namespace greennfv::rl {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t size() const { return data_.size(); }

  [[nodiscard]] double& operator()(std::size_t r, std::size_t c) {
    GNFV_ASSERT(r < rows_ && c < cols_, "Matrix: index out of range");
    return data_[r * cols_ + c];
  }
  [[nodiscard]] double operator()(std::size_t r, std::size_t c) const {
    GNFV_ASSERT(r < rows_ && c < cols_, "Matrix: index out of range");
    return data_[r * cols_ + c];
  }

  [[nodiscard]] double* data() { return data_.data(); }
  [[nodiscard]] const double* data() const { return data_.data(); }
  [[nodiscard]] std::span<double> flat() { return data_; }
  [[nodiscard]] std::span<const double> flat() const { return data_; }

  /// Row `r` as a span.
  [[nodiscard]] std::span<const double> row(std::size_t r) const {
    GNFV_ASSERT(r < rows_, "Matrix: row out of range");
    return std::span<const double>(data_.data() + r * cols_, cols_);
  }

  void fill(double value) { data_.assign(data_.size(), value); }

  /// Reshapes in place. Shrinking or same-size reshapes never release or
  /// acquire memory, so workspaces resized to a stable geometry are
  /// allocation-free after warm-up. New elements are zero.
  void resize(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols, 0.0);
  }

  /// Xavier/Glorot uniform initialization (the standard for tanh nets,
  /// also what DDPG's reference implementation uses for hidden layers).
  void xavier_init(Rng& rng);

  /// Uniform init in [-bound, bound] (DDPG initializes its output layers
  /// at 3e-3 so initial actions/values sit near zero).
  void uniform_init(Rng& rng, double bound);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// y = W x + b. Requires y.size()==W.rows(), x.size()==W.cols(). Each
/// row's sum starts at its bias and adds x in increasing column order;
/// four rows run at a time so their add chains overlap. The inference hot
/// path (Mlp::forward_into).
void matvec4(const Matrix& w, std::span<const double> x,
             std::span<const double> b, std::span<double> y);

// --- batched (BLAS-3) kernels ----------------------------------------------
//
// All three are row-major and blocked over the non-reduced dimensions only
// (see the determinism contract above). `accumulate` selects C += ... over
// C = ...; shapes are asserted.

/// C = A·B (or C += A·B). A: m×k, B: k×n, C: m×n. Backprop's dX = dY·W.
/// Inner structure streams B rows (contiguous) against register-tiled
/// blocks of C; ragged edge blocks run the same tile, zero-padded.
void gemm(const Matrix& a, const Matrix& b, Matrix& c,
          bool accumulate = false);

/// C = Aᵀ·B (or C += Aᵀ·B). A: k×m, B: k×n, C: m×n. The minibatch weight
/// gradient dW += dYᵀ·X, where k is the batch dimension: the rank-1 updates
/// land in batch order, as a per-sample loop of outer products adds them.
void gemm_tn(const Matrix& a, const Matrix& b, Matrix& c,
             bool accumulate = false);

/// C = A·Bᵀ (+ per-column bias). A: m×k, B: n×k, C: m×n. The batched
/// forward Y = X·Wᵀ + b: each output element's accumulator is seeded with
/// bias[j] (when given) and then accumulates k in increasing order — the
/// same sum matvec4 computes per sample.
void gemm_nt(const Matrix& a, const Matrix& b, Matrix& c,
             std::span<const double> bias = {});

/// y[j] += Σ_i a(i, j) — minibatch bias gradient, accumulated over rows in
/// increasing order (the order a per-sample loop adds them).
void add_col_sums(const Matrix& a, std::span<double> y);

}  // namespace greennfv::rl
