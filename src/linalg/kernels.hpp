// Cache-blocked dense kernels and a reusable scratch-buffer Workspace.
//
// These are the hot inner loops beneath Matrix and the batched ML paths
// (Mlp batched prediction, linear-regression prediction, GEMM). Two rules
// govern every kernel here:
//
//  1. Accumulation is k-innermost-ascending with contiguous row spans, so
//     every kernel is bit-identical to the naive reference loop it replaces
//     (tiling reorders *which* output tile is produced first, never the
//     order of additions into one output element). Golden tests in
//     tests/test_kernels.cpp pin this down.
//  2. No kernel allocates: callers pass output storage and (where scratch is
//     needed) a Workspace, so per-call heap traffic on hot paths is zero.
//
// The j-inner loops accumulate into independent output elements (no
// loop-carried reduction), which lets the compiler autovectorize them at -O2
// without -ffast-math; the per-row dot kernels (gemv/gemv_columns) keep the
// serial reduction order on purpose so they stay bit-compatible with dot().
//
// Since the backend-dispatch layer (backend.hpp) every public kernel here
// routes through the active backend's table (naive | blocked | simd). All
// backends are bit-identical for double, so callers never observe a
// numerical difference — only throughput changes. gemm_accumulate_reference
// stays a direct call to the naive loop: it is the golden baseline the
// equivalence gates compare whichever backend is active against.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace dsml::linalg {

/// An arena of reusable double buffers. take() hands out a span of the
/// requested size (contents unspecified); Scope restores the arena to its
/// entry state on destruction so nested users compose. Buffers are recycled
/// across calls, so steady-state take() performs no allocation.
///
/// A Workspace is single-threaded by design; parallel code takes one per
/// thread via tls_workspace().
class Workspace {
 public:
  Workspace() = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// RAII marker: returns the arena to its entry state, releasing every
  /// buffer taken inside the scope for reuse (capacity is kept).
  class Scope {
   public:
    explicit Scope(Workspace& ws) noexcept : ws_(ws), mark_(ws.used_) {}
    ~Scope() { ws_.used_ = mark_; }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Workspace& ws_;
    std::size_t mark_;
  };

  /// A buffer of n doubles, valid until the enclosing Scope ends. Spans from
  /// earlier take() calls stay valid across later ones.
  std::span<double> take(std::size_t n);

  /// Buffers currently handed out (for tests).
  std::size_t buffers_in_use() const noexcept { return used_; }

 private:
  std::vector<std::vector<double>> slabs_;
  std::size_t used_ = 0;
};

/// The calling thread's Workspace. Per-thread, so concurrent batched
/// predictions never share scratch (the TSan suite exercises this).
Workspace& tls_workspace();

namespace kernels {

/// Rows of C produced per tile; sized so a C tile plus the B depth-tile stay
/// cache resident.
inline constexpr std::size_t kRowBlock = 64;
/// Depth (k) per tile: bounds the B working set that must persist across one
/// row block.
inline constexpr std::size_t kDepthBlock = 256;
/// B operands at or below this footprint are treated as cache resident and
/// multiplied in a single depth pass (roughly half a typical 1-2 MiB L2, so
/// A/C row traffic still fits alongside).
inline constexpr std::size_t kCacheResidentBytes = 1u << 20;

/// C(m x n) += A(m x k) * B(k x n), all row-major with the given leading
/// dimensions. C must be initialized by the caller. Cache-blocked over rows
/// and depth; bit-identical to gemm_accumulate_reference.
void gemm_accumulate(const double* a, std::size_t lda, const double* b,
                     std::size_t ldb, double* c, std::size_t ldc,
                     std::size_t m, std::size_t k, std::size_t n);

/// Naive i-k-j reference for gemm_accumulate — the golden baseline the
/// equivalence tests compare against. Not for hot paths.
void gemm_accumulate_reference(const double* a, std::size_t lda,
                               const double* b, std::size_t ldb, double* c,
                               std::size_t ldc, std::size_t m, std::size_t k,
                               std::size_t n);

/// out(cols x rows) = transpose of a(rows x cols); blocked 32x32 tiles.
void transpose(const double* a, std::size_t lda, std::size_t rows,
               std::size_t cols, double* out, std::size_t ldo);

/// y[i] = y[i] + sum_j a(i, j) * x[j]: accumulates into y the way
/// gemm_accumulate accumulates into C, starting from y[i] and adding the
/// terms in ascending j (same reduction order as dot()). Zero y for a plain
/// product; seed it with a bias for `z = b[i]; z += w(i, j) * x[j]`.
void gemv(const double* a, std::size_t lda, std::size_t m, std::size_t n,
          const double* x, double* y);

/// Fused select-columns GEMV: y[i] = sum_k a(i, cols[k]) * beta[k], k
/// ascending. Equivalent to select_columns(cols).multiply(beta) without
/// materialising the column subset.
void gemv_columns(const double* a, std::size_t lda, std::size_t m,
                  const std::size_t* cols, std::size_t n_cols,
                  const double* beta, double* y);

/// One masked SGD-with-momentum step over the m x n row-major block w, with
/// velocities v and mask `mask` of the same shape and leading dimension ld.
/// Row i steps by s = learning_rate * delta[i]; for each j with
/// mask(i, j) != 0.0: v(i, j) = momentum * v(i, j) - s * x[j], then
/// w(i, j) += v(i, j). Masked elements keep their bits whatever x[j] holds.
void momentum_update(double* w, double* v, const double* mask, std::size_t ld,
                     std::size_t m, std::size_t n, const double* x,
                     const double* delta, double learning_rate,
                     double momentum);

/// One batched dense layer: out(rows x fan_out) = act(x(rows x fan_in) * wT
/// + bias), where w is the fan_out x fan_in row-major weight matrix and act
/// is the logistic sigmoid when `sigmoid_activation`, identity otherwise.
/// Uses `ws` for the transposed-weight scratch. Bit-identical to the scalar
/// per-sample forward pass (bias first, then fan-in terms ascending).
void affine_forward(const double* x, std::size_t ldx, std::size_t rows,
                    std::size_t fan_in, const double* w, const double* bias,
                    std::size_t fan_out, bool sigmoid_activation, double* out,
                    std::size_t ldo, Workspace& ws);

}  // namespace kernels
}  // namespace dsml::linalg
