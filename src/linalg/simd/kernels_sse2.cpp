// SSE2 kernel table — the fallback vector backend for x86 CPUs without
// AVX2+FMA. Compiled with -msse2 -ffp-contract=off; the same bit-identity
// rules as kernels_avx2.cpp apply (explicit mul then add or subtract, two
// lanes of independent accumulation chains).
#include "linalg/simd/simd_kernels.hpp"

#if defined(__SSE2__)

#include <emmintrin.h>

namespace dsml::linalg::simd {
namespace {

void gemm_row_block_sse2(const double* a, std::size_t lda, const double* b,
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
      const __m128d av = _mm_set1_pd(aik);
      std::size_t j = 0;
      for (; j + 2 <= n; j += 2) {
        const __m128d bv = _mm_loadu_pd(brow + j);
        __m128d cv = _mm_loadu_pd(crow + j);
        cv = _mm_add_pd(cv, _mm_mul_pd(av, bv));
        _mm_storeu_pd(crow + j, cv);
      }
      for (; j < n; ++j) crow[j] += aik * brow[j];
    }
  }
}

void gemv_sse2(const double* a, std::size_t lda, std::size_t m, std::size_t n,
               const double* x, double* y) {
  std::size_t i = 0;
  for (; i + 2 <= m; i += 2) {
    const double* r0 = a + i * lda;
    const double* r1 = r0 + lda;
    __m128d acc = _mm_loadu_pd(y + i);
    for (std::size_t j = 0; j < n; ++j) {
      const __m128d av = _mm_set_pd(r1[j], r0[j]);
      const __m128d xv = _mm_set1_pd(x[j]);
      acc = _mm_add_pd(acc, _mm_mul_pd(av, xv));
    }
    _mm_storeu_pd(y + i, acc);
  }
  for (; i < m; ++i) {
    const double* arow = a + i * lda;
    double s = y[i];
    for (std::size_t j = 0; j < n; ++j) s += arow[j] * x[j];
    y[i] = s;
  }
}

void gemv_columns_sse2(const double* a, std::size_t lda, std::size_t m,
                       const std::size_t* cols, std::size_t n_cols,
                       const double* beta, double* y) {
  std::size_t i = 0;
  for (; i + 2 <= m; i += 2) {
    const double* r0 = a + i * lda;
    const double* r1 = r0 + lda;
    __m128d acc = _mm_setzero_pd();
    for (std::size_t k = 0; k < n_cols; ++k) {
      const std::size_t c = cols[k];
      const __m128d av = _mm_set_pd(r1[c], r0[c]);
      const __m128d bv = _mm_set1_pd(beta[k]);
      acc = _mm_add_pd(acc, _mm_mul_pd(av, bv));
    }
    _mm_storeu_pd(y + i, acc);
  }
  for (; i < m; ++i) {
    const double* arow = a + i * lda;
    double s = 0.0;
    for (std::size_t k = 0; k < n_cols; ++k) s += arow[cols[k]] * beta[k];
    y[i] = s;
  }
}

// Two lanes across j, as in momentum_update_avx2. SSE2 has no blendv, so
// the blend is (on & new) | (~on & old); _mm_cmpneq_pd is NEQ_UQ.
void momentum_update_sse2(double* w, double* v, const double* mask,
                          std::size_t ld, std::size_t m, std::size_t n,
                          const double* x, const double* delta,
                          double learning_rate, double momentum) {
  const __m128d mom = _mm_set1_pd(momentum);
  const __m128d zero = _mm_setzero_pd();
  for (std::size_t i = 0; i < m; ++i) {
    double* wrow = w + i * ld;
    double* vrow = v + i * ld;
    const double* mrow = mask + i * ld;
    const double s = learning_rate * delta[i];
    const __m128d sv = _mm_set1_pd(s);
    std::size_t j = 0;
    for (; j + 2 <= n; j += 2) {
      const __m128d on = _mm_cmpneq_pd(_mm_loadu_pd(mrow + j), zero);
      const __m128d v_old = _mm_loadu_pd(vrow + j);
      const __m128d w_old = _mm_loadu_pd(wrow + j);
      const __m128d v_new = _mm_sub_pd(_mm_mul_pd(mom, v_old),
                                       _mm_mul_pd(sv, _mm_loadu_pd(x + j)));
      const __m128d w_new = _mm_add_pd(w_old, v_new);
      _mm_storeu_pd(vrow + j, _mm_or_pd(_mm_and_pd(on, v_new),
                                        _mm_andnot_pd(on, v_old)));
      _mm_storeu_pd(wrow + j, _mm_or_pd(_mm_and_pd(on, w_new),
                                        _mm_andnot_pd(on, w_old)));
    }
    for (; j < n; ++j) {
      if (mrow[j] == 0.0) continue;
      vrow[j] = momentum * vrow[j] - s * x[j];
      wrow[j] += vrow[j];
    }
  }
}

constexpr SimdOps kSse2Ops = {
    "sse2", gemm_row_block_sse2, gemv_sse2, gemv_columns_sse2,
    momentum_update_sse2,
};

}  // namespace

const SimdOps* sse2_ops() noexcept { return &kSse2Ops; }

}  // namespace dsml::linalg::simd

#else  // the build requested this TU without SSE2 codegen

namespace dsml::linalg::simd {
const SimdOps* sse2_ops() noexcept { return nullptr; }
}  // namespace dsml::linalg::simd

#endif
