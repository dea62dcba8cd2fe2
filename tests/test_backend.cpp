// Pins the runtime kernel-dispatch contract (linalg/backend.hpp): every
// backend produces bit-identical double results over shapes that exercise
// full vector lanes AND scalar remainders, and the selection priority order
// (override > DSML_BACKEND > cpuid) holds.
#include "linalg/backend.hpp"

#include <gtest/gtest.h>
#include <stdlib.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "data/dataset.hpp"
#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"
#include "linalg/simd/simd_kernels.hpp"
#include "ml/linreg.hpp"
#include "sim/config.hpp"

namespace dsml::linalg {
namespace {

constexpr Backend kAll[] = {Backend::kNaive, Backend::kBlocked,
                            Backend::kSimd};

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// --- Name round-trips and parse errors -------------------------------------

TEST(Backend, ToStringParseRoundTrip) {
  for (Backend b : kAll) {
    EXPECT_EQ(parse_backend(to_string(b)), b);
  }
  EXPECT_STREQ(to_string(Backend::kNaive), "naive");
  EXPECT_STREQ(to_string(Backend::kBlocked), "blocked");
  EXPECT_STREQ(to_string(Backend::kSimd), "simd");
}

TEST(Backend, ParseRejectsUnknownNames) {
  EXPECT_THROW(parse_backend(""), InvalidArgument);
  EXPECT_THROW(parse_backend("avx2"), InvalidArgument);
  EXPECT_THROW(parse_backend("SIMD"), InvalidArgument);
  EXPECT_THROW(parse_backend("blocked "), InvalidArgument);
}

// --- Selection priority ----------------------------------------------------

TEST(Backend, ScopedOverrideAppliesAndRestores) {
  const Backend before = active_backend();
  {
    ScopedBackend pin(Backend::kNaive);
    EXPECT_EQ(active_backend(), Backend::kNaive);
    {
      ScopedBackend inner(Backend::kBlocked);
      EXPECT_EQ(active_backend(), Backend::kBlocked);
    }
    EXPECT_EQ(active_backend(), Backend::kNaive);
  }
  EXPECT_EQ(active_backend(), before);
}

TEST(Backend, EnvironmentVariableSelectsBackend) {
  // reset_backend() drops the cached resolution so the env var is re-read.
  for (Backend b : kAll) {
    ::setenv("DSML_BACKEND", to_string(b), 1);
    reset_backend();
    EXPECT_EQ(active_backend(), b) << to_string(b);
  }
  ::unsetenv("DSML_BACKEND");
  reset_backend();
}

TEST(Backend, MalformedEnvironmentValueThrows) {
  ::setenv("DSML_BACKEND", "warp-drive", 1);
  reset_backend();
  EXPECT_THROW(active_backend(), InvalidArgument);
  ::unsetenv("DSML_BACKEND");
  reset_backend();
}

TEST(Backend, OverrideBeatsEnvironment) {
  ::setenv("DSML_BACKEND", "naive", 1);
  reset_backend();
  {
    ScopedBackend pin(Backend::kBlocked);
    EXPECT_EQ(active_backend(), Backend::kBlocked);
  }
  EXPECT_EQ(active_backend(), Backend::kNaive);
  ::unsetenv("DSML_BACKEND");
  reset_backend();
}

TEST(Backend, SimdVariantConsistentWithAvailability) {
  if (simd_available()) {
    EXPECT_STRNE(simd_variant(), "none");
  } else {
    EXPECT_STREQ(simd_variant(), "none");
  }
}

// --- Cross-backend bit-identity over remainder-lane shapes -----------------

// Shapes chosen to cover every vector-lane remainder: widths 1..5 straddle
// the SSE2 (2-lane) and AVX2 (4-lane) double widths, 64/65 exercise full
// blocks plus a trailing element, and the zero planted in A exercises the
// sparsity skip in every GEMM path. The last shape puts B past
// kCacheResidentBytes (600*300*8 = 1.44 MiB), so the blocked and simd
// backends take the depth-split tiling the smaller shapes never enter.
TEST(Backend, GemmBitIdenticalAcrossBackends) {
  Rng rng(11);
  const auto check = [&](std::size_t m, std::size_t k, std::size_t n) {
    Matrix a(m, k);
    Matrix b(k, n);
    for (double& v : a.data()) v = rng.uniform(-2.0, 2.0);
    for (double& v : b.data()) v = rng.uniform(-2.0, 2.0);
    a.data()[(m * k) / 2] = 0.0;
    std::vector<std::vector<double>> results;
    for (Backend backend : kAll) {
      ScopedBackend pin(backend);
      Matrix c(m, n);
      kernels::gemm_accumulate(a.data().data(), k, b.data().data(), n,
                               c.data().data(), n, m, k, n);
      results.emplace_back(c.data().begin(), c.data().end());
    }
    ASSERT_TRUE(same_bits(results[0], results[1]))
        << "naive vs blocked at " << m << "x" << k << "x" << n;
    ASSERT_TRUE(same_bits(results[0], results[2]))
        << "naive vs simd at " << m << "x" << k << "x" << n;
  };
  for (std::size_t m : {1ul, 3ul, 5ul, 65ul}) {
    for (std::size_t k : {1ul, 7ul, 33ul}) {
      for (std::size_t n : {1ul, 2ul, 3ul, 4ul, 5ul, 9ul, 64ul}) {
        check(m, k, n);
      }
    }
  }
  static_assert(600 * 300 * sizeof(double) > kernels::kCacheResidentBytes);
  check(70, 600, 300);
}

TEST(Backend, GemvBitIdenticalAcrossBackends) {
  Rng rng(13);
  for (std::size_t m : {1ul, 2ul, 3ul, 4ul, 5ul, 7ul, 64ul, 65ul}) {
    for (std::size_t n : {1ul, 6ul, 40ul}) {
      Matrix a(m, n);
      for (double& v : a.data()) v = rng.uniform(-2.0, 2.0);
      std::vector<double> x(n);
      for (double& v : x) v = rng.uniform(-2.0, 2.0);
      std::vector<std::size_t> cols;
      for (std::size_t j = 0; j < n; j += 2) cols.push_back(j);
      std::vector<double> beta(cols.size());
      for (double& v : beta) v = rng.uniform(-2.0, 2.0);

      // gemv accumulates into y: a nonzero seed (a bias) must start each
      // row's chain in every backend.
      std::vector<double> seed(m);
      for (double& v : seed) v = rng.uniform(-2.0, 2.0);

      std::vector<std::vector<double>> dense;
      std::vector<std::vector<double>> seeded;
      std::vector<std::vector<double>> gathered;
      for (Backend backend : kAll) {
        ScopedBackend pin(backend);
        std::vector<double> y(m);
        kernels::gemv(a.data().data(), n, m, n, x.data(), y.data());
        dense.push_back(y);
        std::vector<double> ys = seed;
        kernels::gemv(a.data().data(), n, m, n, x.data(), ys.data());
        seeded.push_back(ys);
        std::vector<double> yc(m);
        kernels::gemv_columns(a.data().data(), n, m, cols.data(),
                              cols.size(), beta.data(), yc.data());
        gathered.push_back(yc);
      }
      ASSERT_TRUE(same_bits(dense[0], dense[1])) << m << "x" << n;
      ASSERT_TRUE(same_bits(dense[0], dense[2])) << m << "x" << n;
      ASSERT_TRUE(same_bits(seeded[0], seeded[1])) << m << "x" << n;
      ASSERT_TRUE(same_bits(seeded[0], seeded[2])) << m << "x" << n;
      ASSERT_TRUE(same_bits(gathered[0], gathered[1])) << m << "x" << n;
      ASSERT_TRUE(same_bits(gathered[0], gathered[2])) << m << "x" << n;
      // The seeded chain is `s = y[i]; s += a(i, j) * x[j]`, j ascending.
      for (std::size_t i = 0; i < m; ++i) {
        double s = seed[i];
        for (std::size_t j = 0; j < n; ++j) s += a(i, j) * x[j];
        ASSERT_TRUE(same_bits({s}, {seeded[0][i]})) << m << "x" << n;
      }
    }
  }
}

// On an AVX2 host cpuid picks the AVX2 table, so the simd backend never runs
// the SSE2 one; call every entry of each compiled-in table directly and
// compare it with the naive backend's scalar kernels. Lengths 1-9 and 22
// (the design space's encoded width) cover every 2- and 4-lane remainder.
void expect_table_matches_scalar(const simd::SimdOps& ops) {
  SCOPED_TRACE(ops.variant);
  ScopedBackend scalar(Backend::kNaive);
  Rng rng(29);
  const std::vector<std::size_t> lengths = {1, 2, 3, 4, 5, 6, 7, 8, 9, 22};
  const auto random = [&](std::size_t n) {
    std::vector<double> v(n);
    for (double& e : v) e = rng.uniform(-2.0, 2.0);
    return v;
  };

  for (std::size_t m : lengths) {
    for (std::size_t n : lengths) {
      // gemm_row_block over an interior row and depth range; the scalar
      // reference runs the same sub-block through offset pointers.
      const std::size_t k = 7;
      std::vector<double> a = random(m * k);
      a[(m * k) / 2] = 0.0;  // the aik == 0.0 skip
      const std::vector<double> b = random(k * n);
      const std::vector<double> c0 = random(m * n);
      const std::size_t i0 = m / 3;
      const std::size_t k0 = 2;
      const std::size_t k1 = 6;
      std::vector<double> want = c0;
      std::vector<double> got = c0;
      kernels::gemm_accumulate_reference(a.data() + i0 * k + k0, k,
                                         b.data() + k0 * n, n,
                                         want.data() + i0 * n, n, m - i0,
                                         k1 - k0, n);
      ops.gemm_row_block(a.data(), k, b.data(), n, got.data(), n, i0, m, k0,
                         k1, n);
      ASSERT_TRUE(same_bits(want, got)) << "gemm_row_block " << m << "x" << n;

      // gemv from a nonzero seed, and gemv_columns over every other column.
      const std::vector<double> w = random(m * n);
      const std::vector<double> x = random(n);
      const std::vector<double> seed = random(m);
      want = seed;
      got = seed;
      kernels::gemv(w.data(), n, m, n, x.data(), want.data());
      ops.gemv(w.data(), n, m, n, x.data(), got.data());
      ASSERT_TRUE(same_bits(want, got)) << "gemv " << m << "x" << n;

      std::vector<std::size_t> cols;
      for (std::size_t j = 0; j < n; j += 2) cols.push_back(j);
      const std::vector<double> beta = random(cols.size());
      want.assign(m, 0.0);
      got.assign(m, 0.0);
      kernels::gemv_columns(w.data(), n, m, cols.data(), cols.size(),
                            beta.data(), want.data());
      ops.gemv_columns(w.data(), n, m, cols.data(), cols.size(), beta.data(),
                       got.data());
      ASSERT_TRUE(same_bits(want, got)) << "gemv_columns " << m << "x" << n;
    }
  }

  // momentum_update: the lanes run along a row, so vary the row length n.
  // Column 1 and the last column (a remainder lane) are masked in every row
  // and their x is NaN/Inf; those elements must keep their bits. A NaN mask
  // counts as set, -0.0 as cleared.
  for (std::size_t m : {1ul, 3ul, 22ul}) {
    for (std::size_t n : lengths) {
      const std::size_t ld = n + 1;  // a leading dimension past the row
      std::vector<double> mask(m * ld, 1.0);
      for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          const double u = rng.uniform();
          if (u < 0.2) mask[i * ld + j] = 0.0;
          if (u > 0.95) mask[i * ld + j] = std::nan("");
          if (u > 0.9 && u <= 0.95) mask[i * ld + j] = -0.0;
        }
        mask[i * ld + n - 1] = 0.0;
        if (n > 2) mask[i * ld + 1] = 0.0;
      }
      std::vector<double> x = random(n);
      x[n - 1] = std::nan("");
      if (n > 2) x[1] = std::numeric_limits<double>::infinity();
      const std::vector<double> delta = random(m);
      const std::vector<double> w0 = random(m * ld);
      const std::vector<double> v0 = random(m * ld);
      std::vector<double> want_w = w0;
      std::vector<double> want_v = v0;
      std::vector<double> got_w = w0;
      std::vector<double> got_v = v0;
      for (int step = 0; step < 2; ++step) {
        kernels::momentum_update(want_w.data(), want_v.data(), mask.data(),
                                 ld, m, n, x.data(), delta.data(), 0.3, 0.9);
        ops.momentum_update(got_w.data(), got_v.data(), mask.data(), ld, m, n,
                            x.data(), delta.data(), 0.3, 0.9);
      }
      ASSERT_TRUE(same_bits(want_w, got_w)) << "momentum w " << m << "x" << n;
      ASSERT_TRUE(same_bits(want_v, got_v)) << "momentum v " << m << "x" << n;
      for (std::size_t e = 0; e < mask.size(); ++e) {
        const bool frozen = mask[e] == 0.0 || e % ld == n;
        if (!frozen) continue;
        ASSERT_TRUE(same_bits({w0[e]}, {got_w[e]})) << "masked w at " << e;
        ASSERT_TRUE(same_bits({v0[e]}, {got_v[e]})) << "masked v at " << e;
      }
    }
  }
}

TEST(Backend, SimdTablesMatchTheScalarKernels) {
  const simd::SimdOps* sse2 = simd::sse2_ops();
  const simd::SimdOps* avx2 = simd::avx2_ops();
#if defined(__x86_64__)
  // SSE2 is part of x86-64, so its table always runs here.
  ASSERT_NE(sse2, nullptr);
#endif
  if (sse2 == nullptr) GTEST_SKIP() << "no vector kernel table in this build";
  expect_table_matches_scalar(*sse2);
  if (std::strcmp(simd_variant(), "avx2") == 0) {
    ASSERT_NE(avx2, nullptr);
    expect_table_matches_scalar(*avx2);
  }
}

TEST(Backend, AffineForwardBitIdenticalAcrossBackends) {
  Rng rng(17);
  for (std::size_t rows : {1ul, 3ul, 33ul}) {
    for (std::size_t fan_in : {1ul, 5ul, 16ul}) {
      for (std::size_t fan_out : {1ul, 4ul, 9ul}) {
        Matrix x(rows, fan_in);
        Matrix w(fan_out, fan_in);
        std::vector<double> bias(fan_out);
        for (double& v : x.data()) v = rng.uniform(-1.0, 1.0);
        for (double& v : w.data()) v = rng.uniform(-1.0, 1.0);
        for (double& v : bias) v = rng.uniform(-1.0, 1.0);
        std::vector<std::vector<double>> results;
        for (Backend backend : kAll) {
          ScopedBackend pin(backend);
          Matrix out(rows, fan_out);
          Workspace ws;
          kernels::affine_forward(x.data().data(), fan_in, rows, fan_in,
                                  w.data().data(), bias.data(), fan_out,
                                  true, out.data().data(), fan_out, ws);
          results.emplace_back(out.data().begin(), out.data().end());
        }
        ASSERT_TRUE(same_bits(results[0], results[1]));
        ASSERT_TRUE(same_bits(results[0], results[2]));
      }
    }
  }
}

// Model-level pin: a full LinearRegression predict over the design space is
// bit-identical whichever backend serves the kernels.
TEST(Backend, LinearRegressionPredictBackendInvariant) {
  const auto configs = sim::enumerate_design_space();
  std::vector<double> cycles;
  Rng noise(3);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    cycles.push_back(1e6 + noise.uniform(0.0, 1e5));
  }
  const data::Dataset full =
      sim::make_config_dataset(configs, std::move(cycles));
  std::vector<std::size_t> idx;
  for (std::size_t i = 0; i < full.n_rows(); i += 9) idx.push_back(i);
  const data::Dataset train = full.select_rows(idx);

  ml::LinearRegression model;
  model.fit(train);
  std::vector<std::vector<double>> results;
  for (Backend backend : kAll) {
    ScopedBackend pin(backend);
    results.push_back(model.predict(full));
  }
  EXPECT_TRUE(same_bits(results[0], results[1]));
  EXPECT_TRUE(same_bits(results[0], results[2]));
}

}  // namespace
}  // namespace dsml::linalg
