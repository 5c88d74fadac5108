#include "rl/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "telemetry/metrics.hpp"

namespace greennfv::rl {

namespace {
// One flight-recorder counter covers all three GEMM entry points — the
// interesting number is batched-kernel invocations per train step.
telemetry::metrics::Counter& c_gemm_calls() {
  static auto& c = telemetry::metrics::counter("rl.gemm_calls");
  return c;
}
}  // namespace

void Matrix::xavier_init(Rng& rng) {
  GNFV_REQUIRE(rows_ > 0 && cols_ > 0, "xavier_init on empty matrix");
  const double bound =
      std::sqrt(6.0 / static_cast<double>(rows_ + cols_));
  for (double& w : data_) w = rng.uniform(-bound, bound);
}

void Matrix::uniform_init(Rng& rng, double bound) {
  GNFV_REQUIRE(bound > 0.0, "uniform_init: bound must be positive");
  for (double& w : data_) w = rng.uniform(-bound, bound);
}

void matvec(const Matrix& w, std::span<const double> x,
            std::span<const double> b, std::span<double> y) {
  GNFV_ASSERT(x.size() == w.cols(), "matvec: x dimension mismatch");
  GNFV_ASSERT(y.size() == w.rows(), "matvec: y dimension mismatch");
  GNFV_ASSERT(b.size() == w.rows(), "matvec: b dimension mismatch");
  const double* wd = w.data();
  const std::size_t cols = w.cols();
  for (std::size_t r = 0; r < w.rows(); ++r) {
    const double* row = wd + r * cols;
    double acc = b[r];
    for (std::size_t c = 0; c < cols; ++c) acc += row[c] * x[c];
    y[r] = acc;
  }
}

double dot(std::span<const double> a, std::span<const double> b) {
  GNFV_ASSERT(a.size() == b.size(), "dot: dimension mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

void matvec4(const Matrix& w, std::span<const double> x,
             std::span<const double> b, std::span<double> y) {
  GNFV_ASSERT(x.size() == w.cols(), "matvec4: x dimension mismatch");
  GNFV_ASSERT(y.size() == w.rows(), "matvec4: y dimension mismatch");
  GNFV_ASSERT(b.size() == w.rows(), "matvec4: b dimension mismatch");
  const double* wd = w.data();
  const std::size_t rows = w.rows();
  const std::size_t cols = w.cols();
  std::size_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    const double* r0 = wd + r * cols;
    const double* r1 = r0 + cols;
    const double* r2 = r1 + cols;
    const double* r3 = r2 + cols;
    double a0 = b[r], a1 = b[r + 1], a2 = b[r + 2], a3 = b[r + 3];
    for (std::size_t c = 0; c < cols; ++c) {
      const double xv = x[c];
      a0 += r0[c] * xv;
      a1 += r1[c] * xv;
      a2 += r2[c] * xv;
      a3 += r3[c] * xv;
    }
    y[r] = a0;
    y[r + 1] = a1;
    y[r + 2] = a2;
    y[r + 3] = a3;
  }
  for (; r < rows; ++r) {
    const double* row = wd + r * cols;
    double acc = b[r];
    for (std::size_t c = 0; c < cols; ++c) acc += row[c] * x[c];
    y[r] = acc;
  }
}

void matvec_transpose(const Matrix& w, std::span<const double> y_grad,
                      std::span<double> x_grad) {
  GNFV_ASSERT(y_grad.size() == w.rows(), "matvec_T: y dimension mismatch");
  GNFV_ASSERT(x_grad.size() == w.cols(), "matvec_T: x dimension mismatch");
  for (double& g : x_grad) g = 0.0;
  const double* wd = w.data();
  const std::size_t cols = w.cols();
  for (std::size_t r = 0; r < w.rows(); ++r) {
    const double g = y_grad[r];
    if (g == 0.0) continue;
    const double* row = wd + r * cols;
    for (std::size_t c = 0; c < cols; ++c) x_grad[c] += g * row[c];
  }
}

void accumulate_outer(Matrix& dw, std::span<const double> y_grad,
                      std::span<const double> x) {
  GNFV_ASSERT(y_grad.size() == dw.rows(), "outer: y dimension mismatch");
  GNFV_ASSERT(x.size() == dw.cols(), "outer: x dimension mismatch");
  double* dwd = dw.data();
  const std::size_t cols = dw.cols();
  for (std::size_t r = 0; r < dw.rows(); ++r) {
    const double g = y_grad[r];
    if (g == 0.0) continue;
    double* row = dwd + r * cols;
    for (std::size_t c = 0; c < cols; ++c) row[c] += g * x[c];
  }
}

namespace {

/// Register-tile geometry for the shared GEMM core: kMR×kNR output
/// elements accumulate in registers while the reduction streams past, so
/// the adds form kMR·kNR independent chains (latency hidden) and the kNR
/// axis is SIMD — across *outputs*, never across the reduction, which keeps
/// every element's k-order fixed.
constexpr std::size_t kMR = 4;
constexpr std::size_t kNR = 16;

/// The micro-kernel's vector: the widest double vector the compile target
/// has, as a GCC/Clang vector type (no intrinsics, no runtime dispatch).
/// The lane count only decides how many outputs one instruction updates,
/// never an output's sequence of IEEE ops, so every width gives the same
/// bits.
#if defined(__AVX512F__)
constexpr std::size_t kLanes = 8;
#elif defined(__AVX__)
constexpr std::size_t kLanes = 4;
#else
constexpr std::size_t kLanes = 2;
#endif
constexpr std::size_t kVecs = kNR / kLanes;  // vectors per tile row
using Vec = double __attribute__((vector_size(kLanes * sizeof(double))));

inline Vec load(const double* p) {
  Vec v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store(double* p, Vec v) { std::memcpy(p, &v, sizeof v); }

/// Packs an mr-row slab of A (mr ≤ kMR) reduction-major: pan[t·kMR + ii] =
/// a(ii, t), where a(ii, t) = ap[ii·si + t·st], with rows mr..kMR zero. One
/// O(kMR·k) pass per slab makes the micro-kernel's per-t loads contiguous
/// for both the normal (si=k, st=1) and transposed (si=1, st=m) left
/// operands; the zero rows let a ragged slab run the same kernel (they
/// feed only outputs that are never stored).
inline void pack_a_panel(const double* ap, std::size_t si, std::size_t st,
                         std::size_t mr, std::size_t kk, double* pan) {
  for (std::size_t t = 0; t < kk; ++t)
    for (std::size_t ii = 0; ii < kMR; ++ii)
      pan[t * kMR + ii] = ii < mr ? ap[ii * si + t * st] : 0.0;
}

/// Copies an nr-column strip of B (nr < kNR, kk rows, leading dimension
/// ldb) into a kk×kNR strip whose columns nr..kNR are zero.
inline void pack_b_strip(const double* bp, std::size_t ldb, std::size_t nr,
                         std::size_t kk, double* strip) {
  for (std::size_t t = 0; t < kk; ++t)
    for (std::size_t jj = 0; jj < kNR; ++jj)
      strip[t * kNR + jj] = jj < nr ? bp[t * ldb + jj] : 0.0;
}

/// The micro-kernel: a kMR×kNR block of C accumulates in vector registers
/// while the packed A panel and B stream past. C carries the accumulator
/// seed (bias / zero / running sum), and every product is added, exact
/// zeros in A included — each element sees the naive triple loop's ops.
inline void tile_4x16(const double* pan, const double* bp, std::size_t ldb,
                      double* cp, std::size_t ldc, std::size_t kk) {
  Vec acc[kMR][kVecs];
  for (std::size_t ii = 0; ii < kMR; ++ii)
    for (std::size_t v = 0; v < kVecs; ++v)
      acc[ii][v] = load(cp + ii * ldc + v * kLanes);
  for (std::size_t t = 0; t < kk; ++t) {
    Vec b[kVecs];
    for (std::size_t v = 0; v < kVecs; ++v)
      b[v] = load(bp + t * ldb + v * kLanes);
    for (std::size_t ii = 0; ii < kMR; ++ii) {
      const double a = pan[t * kMR + ii];
      for (std::size_t v = 0; v < kVecs; ++v) acc[ii][v] += a * b[v];
    }
  }
  for (std::size_t ii = 0; ii < kMR; ++ii)
    for (std::size_t v = 0; v < kVecs; ++v)
      store(cp + ii * ldc + v * kLanes, acc[ii][v]);
}

/// A ragged mr×nr corner of C (mr ≤ kMR, nr ≤ kNR) through the same
/// micro-kernel: staged in a zero-padded stack tile, so the kernel never
/// reads or writes C out of bounds.
inline void tile_staged(const double* pan, const double* bp, std::size_t ldb,
                        double* cp, std::size_t ldc, std::size_t mr,
                        std::size_t nr, std::size_t kk) {
  alignas(64) double tile[kMR * kNR] = {};
  for (std::size_t ii = 0; ii < mr; ++ii)
    for (std::size_t jj = 0; jj < nr; ++jj)
      tile[ii * kNR + jj] = cp[ii * ldc + jj];
  tile_4x16(pan, bp, ldb, tile, kNR, kk);
  for (std::size_t ii = 0; ii < mr; ++ii)
    for (std::size_t jj = 0; jj < nr; ++jj)
      cp[ii * ldc + jj] = tile[ii * kNR + jj];
}

/// C(m×n) += Σ_t a(·, t)·B[t][·] over an already-initialized C (the init
/// pass carries the accumulator seed: zero, bias, or a running sum). B
/// must be reduction-major (row t contiguous, leading dimension n).
void gemm_core(const double* ap, std::size_t si, std::size_t st,
               const double* bp, double* cp, std::size_t m, std::size_t n,
               std::size_t kk) {
  const std::size_t n_main = n - n % kNR;
  static thread_local std::vector<double> panel;
  static thread_local std::vector<double> strip;
  panel.resize(kMR * kk);
  if (n_main < n) {
    strip.resize(kk * kNR);
    pack_b_strip(bp + n_main, n, n - n_main, kk, strip.data());
  }
  for (std::size_t i0 = 0; i0 < m; i0 += kMR) {
    const std::size_t mr = std::min(kMR, m - i0);
    pack_a_panel(ap + i0 * si, si, st, mr, kk, panel.data());
    double* c = cp + i0 * n;
    for (std::size_t j0 = 0; j0 < n_main; j0 += kNR) {
      if (mr == kMR) {
        tile_4x16(panel.data(), bp + j0, n, c + j0, n, kk);
      } else {
        tile_staged(panel.data(), bp + j0, n, c + j0, n, mr, kNR, kk);
      }
    }
    if (n_main < n) {
      tile_staged(panel.data(), strip.data(), kNR, c + n_main, n, mr,
                  n - n_main, kk);
    }
  }
}

/// C(m×1) = seed + A(m×kk)·b: one output column, each row's sum seeded
/// with `seed` and accumulating kk in increasing order, as the tile would.
/// Eight rows run at once so their add chains overlap; the tile would
/// spend 15 of its 16 columns on zeros.
void gemm_column(const double* ap, const double* bp, double* cp,
                 std::size_t m, std::size_t kk, double seed) {
  constexpr std::size_t kRows = 8;
  std::size_t i0 = 0;
  for (; i0 + kRows <= m; i0 += kRows) {
    double acc[kRows];
    for (std::size_t r = 0; r < kRows; ++r) acc[r] = seed;
    for (std::size_t t = 0; t < kk; ++t) {
      const double b = bp[t];
      for (std::size_t r = 0; r < kRows; ++r)
        acc[r] += ap[(i0 + r) * kk + t] * b;
    }
    for (std::size_t r = 0; r < kRows; ++r) cp[i0 + r] = acc[r];
  }
  for (; i0 < m; ++i0) {
    double acc = seed;
    for (std::size_t t = 0; t < kk; ++t) acc += ap[i0 * kk + t] * bp[t];
    cp[i0] = acc;
  }
}

}  // namespace

void gemm(const Matrix& a, const Matrix& b, Matrix& c, bool accumulate) {
  c_gemm_calls().add();
  GNFV_ASSERT(a.cols() == b.rows(), "gemm: inner dimension mismatch");
  GNFV_ASSERT(c.rows() == a.rows() && c.cols() == b.cols(),
              "gemm: output shape mismatch");
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  double* cd = c.data();
  if (!accumulate) {
    for (std::size_t i = 0; i < m * n; ++i) cd[i] = 0.0;
  }
  // B is already reduction-major (k×n); A rows are walked t-contiguously.
  gemm_core(a.data(), /*si=*/k, /*st=*/1, b.data(), cd, m, n, k);
}

void gemm_tn(const Matrix& a, const Matrix& b, Matrix& c, bool accumulate) {
  c_gemm_calls().add();
  GNFV_ASSERT(a.rows() == b.rows(), "gemm_tn: batch dimension mismatch");
  GNFV_ASSERT(c.rows() == a.cols() && c.cols() == b.cols(),
              "gemm_tn: output shape mismatch");
  const std::size_t kk = a.rows(), m = a.cols(), n = b.cols();
  double* cd = c.data();
  if (!accumulate) {
    for (std::size_t i = 0; i < m * n; ++i) cd[i] = 0.0;
  }
  // Aᵀ: element (ii, t) lives at ad[t·m + ii] — si=1, st=m. The batch
  // index t advances in increasing order for every output element, so the
  // rank-1 updates land exactly as per-sample accumulate_outer would.
  gemm_core(a.data(), /*si=*/1, /*st=*/m, b.data(), cd, m, n, kk);
}

void gemm_nt(const Matrix& a, const Matrix& b, Matrix& c,
             std::span<const double> bias) {
  c_gemm_calls().add();
  GNFV_ASSERT(a.cols() == b.cols(), "gemm_nt: inner dimension mismatch");
  GNFV_ASSERT(c.rows() == a.rows() && c.cols() == b.rows(),
              "gemm_nt: output shape mismatch");
  GNFV_ASSERT(bias.empty() || bias.size() == b.rows(),
              "gemm_nt: bias dimension mismatch");
  const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
  const double* bd = b.data();
  double* cd = c.data();
  if (n == 1) {
    gemm_column(a.data(), bd, cd, m, k, bias.empty() ? 0.0 : bias[0]);
    return;
  }
  // Dot-product form would serialize each output element on a k-long add
  // chain (add-latency bound, no legal SIMD over the reduction). Instead
  // pack Bᵀ once — O(k·n) against O(m·k·n) math — and run the tiled core;
  // each element still accumulates k in increasing order, seeded with its
  // bias exactly like matvec seeds its accumulator.
  static thread_local std::vector<double> packed;
  packed.resize(k * n);
  for (std::size_t j = 0; j < n; ++j) {
    const double* brow = bd + j * k;
    for (std::size_t t = 0; t < k; ++t) packed[t * n + j] = brow[t];
  }
  for (std::size_t i = 0; i < m; ++i) {
    double* crow = cd + i * n;
    if (bias.empty()) {
      for (std::size_t j = 0; j < n; ++j) crow[j] = 0.0;
    } else {
      for (std::size_t j = 0; j < n; ++j) crow[j] = bias[j];
    }
  }
  gemm_core(a.data(), /*si=*/k, /*st=*/1, packed.data(), cd, m, n, k);
}

void add_col_sums(const Matrix& a, std::span<double> y) {
  GNFV_ASSERT(y.size() == a.cols(), "add_col_sums: dimension mismatch");
  const double* ad = a.data();
  const std::size_t n = a.cols();
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* row = ad + i * n;
    for (std::size_t j = 0; j < n; ++j) y[j] += row[j];
  }
}

void axpy(double alpha, std::span<const double> x, std::span<double> y) {
  GNFV_ASSERT(x.size() == y.size(), "axpy: dimension mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

double norm2(std::span<const double> x) {
  return std::sqrt(dot(x, x));
}

}  // namespace greennfv::rl
