#include "linalg/kernels.hpp"

#include <algorithm>
#include <cmath>

#include "common/metrics.hpp"
#include "linalg/backend.hpp"
#include "linalg/simd/simd_kernels.hpp"

namespace dsml::linalg {

std::span<double> Workspace::take(std::size_t n) {
  if (used_ == slabs_.size()) slabs_.emplace_back();
  std::vector<double>& slab = slabs_[used_++];
  if (slab.size() < n) {
    slab.resize(n);
    // High-water mark of any single workspace slab; set_max keeps only the
    // largest, so hot-loop re-takes of an already-sized slab never touch it.
    static metrics::Gauge& high_water = metrics::gauge("linalg.workspace_bytes");
    high_water.set_max(static_cast<double>(n * sizeof(double)));
  }
  return {slab.data(), n};
}

Workspace& tls_workspace() {
  thread_local Workspace ws;
  return ws;
}

namespace kernels {

namespace {

// One row block of C += A * B, over the depth slice [k0, k1). The j loop is
// innermost over a contiguous C row, so additions into c[i][j] happen in
// ascending k order — identical to the naive reference. The aik == 0.0 skip
// mirrors Matrix::multiply's historical sparsity shortcut (weight masks zero
// whole entries), and keeps 0 * Inf / 0 * NaN behavior unchanged. The simd
// backend's row blocks reproduce this loop with vector mul+add across the
// independent j elements (see simd/simd_kernels.hpp for the contract).
void gemm_row_block(const double* a, std::size_t lda, const double* b,
                    std::size_t ldb, double* c, std::size_t ldc,
                    std::size_t i0, std::size_t i1, std::size_t k0,
                    std::size_t k1, std::size_t n) {
  for (std::size_t i = i0; i < i1; ++i) {
    const double* arow = a + i * lda;
    double* crow = c + i * ldc;
    for (std::size_t k = k0; k < k1; ++k) {
      const double aik = arow[k];
      if (aik == 0.0) continue;
      const double* brow = b + k * ldb;
      for (std::size_t j = 0; j < n; ++j) {
        crow[j] += aik * brow[j];
      }
    }
  }
}

using RowBlockFn = void (*)(const double*, std::size_t, const double*,
                            std::size_t, double*, std::size_t, std::size_t,
                            std::size_t, std::size_t, std::size_t,
                            std::size_t);

// The cache-blocking driver shared by the blocked and simd backends; only
// the row-block body differs. Depth-splitting pays only when B is too big to
// sit in L2 across a row block: it then bounds the B working set so a tile
// loaded once is reused by all kRowBlock rows. When B already fits, the
// split would just re-walk each C tile per depth slice, so run the full
// depth in one pass. Either way additions into any c[i][j] happen in the
// same ascending-k order, so the result is bit-identical to the reference.
void gemm_tiled(RowBlockFn row_block, const double* a, std::size_t lda,
                const double* b, std::size_t ldb, double* c, std::size_t ldc,
                std::size_t m, std::size_t k, std::size_t n) {
  const std::size_t depth_block =
      k * n * sizeof(double) <= kCacheResidentBytes ? k : kDepthBlock;
  for (std::size_t i0 = 0; i0 < m; i0 += kRowBlock) {
    const std::size_t i1 = std::min(i0 + kRowBlock, m);
    for (std::size_t k0 = 0; k0 < k; k0 += depth_block) {
      const std::size_t k1 = std::min(k0 + depth_block, k);
      row_block(a, lda, b, ldb, c, ldc, i0, i1, k0, k1, n);
    }
  }
}

void gemv_scalar(const double* a, std::size_t lda, std::size_t m,
                 std::size_t n, const double* x, double* y) {
  for (std::size_t i = 0; i < m; ++i) {
    const double* arow = a + i * lda;
    double s = y[i];
    for (std::size_t j = 0; j < n; ++j) s += arow[j] * x[j];
    y[i] = s;
  }
}

void gemv_columns_scalar(const double* a, std::size_t lda, std::size_t m,
                         const std::size_t* cols, std::size_t n_cols,
                         const double* beta, double* y) {
  for (std::size_t i = 0; i < m; ++i) {
    const double* arow = a + i * lda;
    double s = 0.0;
    for (std::size_t k = 0; k < n_cols; ++k) s += arow[cols[k]] * beta[k];
    y[i] = s;
  }
}

void momentum_update_scalar(double* w, double* v, const double* mask,
                            std::size_t ld, std::size_t m, std::size_t n,
                            const double* x, const double* delta,
                            double learning_rate, double momentum) {
  for (std::size_t i = 0; i < m; ++i) {
    double* wrow = w + i * ld;
    double* vrow = v + i * ld;
    const double* mrow = mask + i * ld;
    const double s = learning_rate * delta[i];
    for (std::size_t j = 0; j < n; ++j) {
      if (mrow[j] == 0.0) continue;
      vrow[j] = momentum * vrow[j] - s * x[j];
      wrow[j] += vrow[j];
    }
  }
}

// ---------------------------------------------------------------------------
// Backend dispatch. One table per Backend; all double entries are
// bit-identical, so switching backends can never change a result — only how
// fast it arrives. The simd table aliases the blocked entries when no vector
// TU matches this machine (simd_variant() == "none").
// ---------------------------------------------------------------------------

struct KernelTable {
  void (*gemm_accumulate)(const double*, std::size_t, const double*,
                          std::size_t, double*, std::size_t, std::size_t,
                          std::size_t, std::size_t);
  void (*gemv)(const double*, std::size_t, std::size_t, std::size_t,
               const double*, double*);
  void (*gemv_columns)(const double*, std::size_t, std::size_t,
                       const std::size_t*, std::size_t, const double*,
                       double*);
  void (*momentum_update)(double*, double*, const double*, std::size_t,
                          std::size_t, std::size_t, const double*,
                          const double*, double, double);
};

void gemm_naive(const double* a, std::size_t lda, const double* b,
                std::size_t ldb, double* c, std::size_t ldc, std::size_t m,
                std::size_t k, std::size_t n) {
  gemm_row_block(a, lda, b, ldb, c, ldc, 0, m, 0, k, n);
}

void gemm_blocked(const double* a, std::size_t lda, const double* b,
                  std::size_t ldb, double* c, std::size_t ldc, std::size_t m,
                  std::size_t k, std::size_t n) {
  gemm_tiled(gemm_row_block, a, lda, b, ldb, c, ldc, m, k, n);
}

void gemm_simd(const double* a, std::size_t lda, const double* b,
               std::size_t ldb, double* c, std::size_t ldc, std::size_t m,
               std::size_t k, std::size_t n) {
  gemm_tiled(detail::selected_simd_ops()->gemm_row_block, a, lda, b, ldb, c,
             ldc, m, k, n);
}

void gemv_simd(const double* a, std::size_t lda, std::size_t m, std::size_t n,
               const double* x, double* y) {
  detail::selected_simd_ops()->gemv(a, lda, m, n, x, y);
}

void gemv_columns_simd(const double* a, std::size_t lda, std::size_t m,
                       const std::size_t* cols, std::size_t n_cols,
                       const double* beta, double* y) {
  detail::selected_simd_ops()->gemv_columns(a, lda, m, cols, n_cols, beta, y);
}

void momentum_update_simd(double* w, double* v, const double* mask,
                          std::size_t ld, std::size_t m, std::size_t n,
                          const double* x, const double* delta,
                          double learning_rate, double momentum) {
  detail::selected_simd_ops()->momentum_update(w, v, mask, ld, m, n, x, delta,
                                               learning_rate, momentum);
}

constexpr KernelTable kNaiveTable = {gemm_naive, gemv_scalar,
                                     gemv_columns_scalar,
                                     momentum_update_scalar};
constexpr KernelTable kBlockedTable = {gemm_blocked, gemv_scalar,
                                       gemv_columns_scalar,
                                       momentum_update_scalar};
constexpr KernelTable kSimdTable = {gemm_simd, gemv_simd, gemv_columns_simd,
                                    momentum_update_simd};

const KernelTable& table_for(Backend backend) {
  switch (backend) {
    case Backend::kNaive:
      return kNaiveTable;
    case Backend::kBlocked:
      return kBlockedTable;
    case Backend::kSimd:
      break;
  }
  return detail::selected_simd_ops() != nullptr ? kSimdTable : kBlockedTable;
}

const KernelTable& active_table() { return table_for(active_backend()); }

inline double sigmoid(double z) { return 1.0 / (1.0 + std::exp(-z)); }

}  // namespace

void gemm_accumulate(const double* a, std::size_t lda, const double* b,
                     std::size_t ldb, double* c, std::size_t ldc,
                     std::size_t m, std::size_t k, std::size_t n) {
  static metrics::Counter& calls = metrics::counter("linalg.gemm_calls");
  calls.add();
  active_table().gemm_accumulate(a, lda, b, ldb, c, ldc, m, k, n);
}

void gemm_accumulate_reference(const double* a, std::size_t lda,
                               const double* b, std::size_t ldb, double* c,
                               std::size_t ldc, std::size_t m, std::size_t k,
                               std::size_t n) {
  gemm_row_block(a, lda, b, ldb, c, ldc, 0, m, 0, k, n);
}

void transpose(const double* a, std::size_t lda, std::size_t rows,
               std::size_t cols, double* out, std::size_t ldo) {
  constexpr std::size_t kTile = 32;
  for (std::size_t r0 = 0; r0 < rows; r0 += kTile) {
    const std::size_t r1 = std::min(r0 + kTile, rows);
    for (std::size_t c0 = 0; c0 < cols; c0 += kTile) {
      const std::size_t c1 = std::min(c0 + kTile, cols);
      for (std::size_t r = r0; r < r1; ++r) {
        const double* arow = a + r * lda;
        for (std::size_t c = c0; c < c1; ++c) {
          out[c * ldo + r] = arow[c];
        }
      }
    }
  }
}

void gemv(const double* a, std::size_t lda, std::size_t m, std::size_t n,
          const double* x, double* y) {
  active_table().gemv(a, lda, m, n, x, y);
}

void gemv_columns(const double* a, std::size_t lda, std::size_t m,
                  const std::size_t* cols, std::size_t n_cols,
                  const double* beta, double* y) {
  active_table().gemv_columns(a, lda, m, cols, n_cols, beta, y);
}

void momentum_update(double* w, double* v, const double* mask, std::size_t ld,
                     std::size_t m, std::size_t n, const double* x,
                     const double* delta, double learning_rate,
                     double momentum) {
  active_table().momentum_update(w, v, mask, ld, m, n, x, delta,
                                 learning_rate, momentum);
}

void affine_forward(const double* x, std::size_t ldx, std::size_t rows,
                    std::size_t fan_in, const double* w, const double* bias,
                    std::size_t fan_out, bool sigmoid_activation, double* out,
                    std::size_t ldo, Workspace& ws) {
  Workspace::Scope scope(ws);
  // wT(fan_in x fan_out) lets the GEMM walk contiguous spans of both inputs.
  std::span<double> wt = ws.take(fan_in * fan_out);
  transpose(w, fan_in, fan_out, fan_in, wt.data(), fan_out);
  // Seed each output row with the bias so the per-element addition sequence
  // is bias first, then x[0]*w[.,0], x[1]*w[.,1], ... — exactly the scalar
  // `z = b[i]; z += w[i][j] * in[j]` loop. The GEMM dispatches through the
  // active backend, so affine_forward inherits naive/blocked/simd behavior
  // (and their shared bit pattern) without a table entry of its own.
  for (std::size_t r = 0; r < rows; ++r) {
    std::copy_n(bias, fan_out, out + r * ldo);
  }
  gemm_accumulate(x, ldx, wt.data(), fan_out, out, ldo, rows, fan_in, fan_out);
  if (sigmoid_activation) {
    for (std::size_t r = 0; r < rows; ++r) {
      double* orow = out + r * ldo;
      for (std::size_t j = 0; j < fan_out; ++j) orow[j] = sigmoid(orow[j]);
    }
  }
}

}  // namespace kernels
}  // namespace dsml::linalg
