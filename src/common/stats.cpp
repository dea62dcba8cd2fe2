#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>

#include "common/error.hpp"

namespace dsml::stats {

double mean(std::span<const double> xs) {
  DSML_REQUIRE(!xs.empty(), "mean: empty range");
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
  DSML_REQUIRE(xs.size() >= 2, "variance: need at least two elements");
  const double m = mean(xs);
  double ss = 0.0;
  for (double x : xs) ss += (x - m) * (x - m);
  return ss / static_cast<double>(xs.size() - 1);
}

double population_variance(std::span<const double> xs) {
  DSML_REQUIRE(!xs.empty(), "population_variance: empty range");
  const double m = mean(xs);
  double ss = 0.0;
  for (double x : xs) ss += (x - m) * (x - m);
  return ss / static_cast<double>(xs.size());
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

double geometric_mean(std::span<const double> xs) {
  DSML_REQUIRE(!xs.empty(), "geometric_mean: empty range");
  double log_sum = 0.0;
  for (double x : xs) {
    DSML_REQUIRE(x > 0.0, "geometric_mean: non-positive element");
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(xs.size()));
}

double min(std::span<const double> xs) {
  DSML_REQUIRE(!xs.empty(), "min: empty range");
  return *std::min_element(xs.begin(), xs.end());
}

double max(std::span<const double> xs) {
  DSML_REQUIRE(!xs.empty(), "max: empty range");
  return *std::max_element(xs.begin(), xs.end());
}

double median(std::span<const double> xs) { return percentile(xs, 50.0); }

double percentile(std::span<const double> xs, double p) {
  DSML_REQUIRE(!xs.empty(), "percentile: empty range");
  DSML_REQUIRE(p >= 0.0 && p <= 100.0, "percentile: p outside [0,100]");
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted.front();
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double pearson(std::span<const double> xs, std::span<const double> ys) {
  DSML_REQUIRE(xs.size() == ys.size() && xs.size() >= 2,
               "pearson: ranges must be equal length >= 2");
  const double mx = mean(xs);
  const double my = mean(ys);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx == 0.0 || syy == 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

double variation(std::span<const double> xs) {
  const double m = mean(xs);
  DSML_REQUIRE(m != 0.0, "variation: zero mean");
  return stddev(xs) / std::abs(m);
}

double range_ratio(std::span<const double> xs) {
  const double lo = min(xs);
  DSML_REQUIRE(lo > 0.0, "range_ratio: non-positive minimum");
  return max(xs) / lo;
}

// ---------------------------------------------------------------------------
// Special functions
// ---------------------------------------------------------------------------

double log_gamma(double x) {
#if defined(__GLIBC__) || defined(__APPLE__)
  // std::lgamma writes the global `signgam`, which is a data race when CDFs
  // run on pool workers concurrently. lgamma_r computes the same value but
  // reports the sign through the out-parameter instead.
  int sign = 0;
  return ::lgamma_r(x, &sign);
#else
  return std::lgamma(x);
#endif
}

namespace {

// Continued fraction for the incomplete beta function (Lentz's algorithm).
double beta_cf(double a, double b, double x) {
  constexpr int kMaxIter = 300;
  constexpr double kEps = 3.0e-14;
  constexpr double kFpMin = 1.0e-300;

  const double qab = a + b;
  const double qap = a + 1.0;
  const double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::abs(d) < kFpMin) d = kFpMin;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= kMaxIter; ++m) {
    const int m2 = 2 * m;
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::abs(d) < kFpMin) d = kFpMin;
    c = 1.0 + aa / c;
    if (std::abs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::abs(d) < kFpMin) d = kFpMin;
    c = 1.0 + aa / c;
    if (std::abs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::abs(del - 1.0) < kEps) return h;
  }
  throw NumericalError("incomplete_beta: continued fraction did not converge");
}

}  // namespace

double incomplete_beta(double a, double b, double x) {
  DSML_REQUIRE(a > 0.0 && b > 0.0, "incomplete_beta: a,b must be positive");
  DSML_REQUIRE(x >= 0.0 && x <= 1.0, "incomplete_beta: x outside [0,1]");
  if (x == 0.0) return 0.0;
  if (x == 1.0) return 1.0;
  const double ln_front = log_gamma(a + b) - log_gamma(a) - log_gamma(b) +
                          a * std::log(x) + b * std::log(1.0 - x);
  const double front = std::exp(ln_front);
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * beta_cf(a, b, x) / a;
  }
  return 1.0 - front * beta_cf(b, a, 1.0 - x) / b;
}

double normal_cdf(double z) { return 0.5 * std::erfc(-z / std::sqrt(2.0)); }

double normal_quantile(double p) {
  DSML_REQUIRE(p > 0.0 && p < 1.0, "normal_quantile: p outside (0,1)");
  // Acklam's rational approximation.
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double p_low = 0.02425;
  double x;
  if (p < p_low) {
    const double q = std::sqrt(-2.0 * std::log(p));
    x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  } else if (p <= 1.0 - p_low) {
    const double q = p - 0.5;
    const double r = q * q;
    x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) *
        q /
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  } else {
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  // One Halley refinement step using the true CDF.
  const double e = normal_cdf(x) - p;
  const double u = e * std::sqrt(2.0 * std::numbers::pi) * std::exp(x * x / 2.0);
  x = x - u / (1.0 + x * u / 2.0);
  return x;
}

double student_t_cdf(double t, double nu) {
  DSML_REQUIRE(nu > 0.0, "student_t_cdf: nu must be positive");
  const double x = nu / (nu + t * t);
  const double tail = 0.5 * incomplete_beta(nu / 2.0, 0.5, x);
  return t >= 0.0 ? 1.0 - tail : tail;
}

double t_test_p_value(double t, double nu) {
  const double x = nu / (nu + t * t);
  return incomplete_beta(nu / 2.0, 0.5, x);
}

// ---------------------------------------------------------------------------
// RunningStats
// ---------------------------------------------------------------------------

void RunningStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto n = static_cast<double>(n_);
  const auto m = static_cast<double>(other.n_);
  mean_ += delta * m / (n + m);
  m2_ += other.m2_ + delta * delta * n * m / (n + m);
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

double RunningStats::variance() const noexcept {
  return n_ >= 2 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

}  // namespace dsml::stats
