// Descriptive statistics and the Student-t distribution behind the
// regression-inference machinery: stepwise selection and coefficient
// significance both use two-sided t-test p-values, which equal the partial-F
// p-values of a one-predictor change (F = t^2 with one numerator degree of
// freedom).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace dsml::stats {

/// Arithmetic mean. Requires a non-empty range.
double mean(std::span<const double> xs);

/// Sample variance (divides by n-1). Requires at least two elements.
double variance(std::span<const double> xs);

/// Population variance (divides by n). Requires a non-empty range.
double population_variance(std::span<const double> xs);

/// Sample standard deviation.
double stddev(std::span<const double> xs);

/// Geometric mean; all inputs must be strictly positive. This is the SPEC
/// rating aggregation function.
double geometric_mean(std::span<const double> xs);

/// Minimum / maximum of a non-empty range.
double min(std::span<const double> xs);
double max(std::span<const double> xs);

/// Median (interpolated for even sizes). Copies the input.
double median(std::span<const double> xs);

/// p-th percentile in [0,100] with linear interpolation. Copies the input.
double percentile(std::span<const double> xs, double p);

/// Pearson correlation coefficient of two equal-length ranges.
double pearson(std::span<const double> xs, std::span<const double> ys);

/// Coefficient of variation-like "variation" statistic the paper reports for
/// its datasets: stddev / mean.
double variation(std::span<const double> xs);

/// Range ratio the paper reports: max / min (the best configuration is
/// `range_ratio` times better than the worst). All values must be positive.
double range_ratio(std::span<const double> xs);

// ---------------------------------------------------------------------------
// Special functions & distributions
// ---------------------------------------------------------------------------

/// Natural log of the gamma function (wraps std::lgamma; kept here so callers
/// depend on one stats facade).
double log_gamma(double x);

/// Regularized incomplete beta function I_x(a, b), continued-fraction
/// evaluation (Numerical-Recipes-style). Domain: a,b > 0, x in [0,1].
double incomplete_beta(double a, double b, double x);

/// Standard normal CDF.
double normal_cdf(double z);

/// Standard normal inverse CDF (Acklam's rational approximation, refined by
/// one Halley step). Domain: p in (0,1).
double normal_quantile(double p);

/// Student-t CDF with nu degrees of freedom.
double student_t_cdf(double t, double nu);

/// Two-sided p-value for a t statistic with nu degrees of freedom (the
/// stepwise entry/removal and coefficient-significance test).
double t_test_p_value(double t, double nu);

// ---------------------------------------------------------------------------
// Streaming accumulator
// ---------------------------------------------------------------------------

/// Welford single-pass accumulator for mean/variance/min/max — used by the
/// simulator's statistics counters and by the experiment harness.
class RunningStats {
 public:
  void add(double x) noexcept;
  void merge(const RunningStats& other) noexcept;

  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ > 0 ? mean_ : 0.0; }
  double variance() const noexcept;  ///< sample variance (n-1)
  double stddev() const noexcept;
  double min() const noexcept { return min_; }
  double max() const noexcept { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace dsml::stats
