#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.hpp"

namespace dsml::stats {
namespace {

TEST(DescriptiveStats, Mean) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
}

TEST(DescriptiveStats, MeanSingleElement) {
  const std::vector<double> xs = {7.0};
  EXPECT_DOUBLE_EQ(mean(xs), 7.0);
}

TEST(DescriptiveStats, MeanEmptyThrows) {
  const std::vector<double> xs;
  EXPECT_THROW(mean(xs), InvalidArgument);
}

TEST(DescriptiveStats, SampleVariance) {
  const std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_NEAR(variance(xs), 32.0 / 7.0, 1e-12);
}

TEST(DescriptiveStats, PopulationVariance) {
  const std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_NEAR(population_variance(xs), 4.0, 1e-12);
}

TEST(DescriptiveStats, VarianceNeedsTwo) {
  const std::vector<double> xs = {1.0};
  EXPECT_THROW(variance(xs), InvalidArgument);
}

TEST(DescriptiveStats, GeometricMean) {
  const std::vector<double> xs = {1.0, 4.0, 16.0};
  EXPECT_NEAR(geometric_mean(xs), 4.0, 1e-12);
}

TEST(DescriptiveStats, GeometricMeanRejectsNonPositive) {
  const std::vector<double> xs = {1.0, 0.0};
  EXPECT_THROW(geometric_mean(xs), InvalidArgument);
}

TEST(DescriptiveStats, GeometricMeanBelowArithmetic) {
  const std::vector<double> xs = {2.0, 8.0, 32.0};
  EXPECT_LT(geometric_mean(xs), mean(xs));
}

TEST(DescriptiveStats, MinMax) {
  const std::vector<double> xs = {3.0, -1.0, 7.0, 2.0};
  EXPECT_DOUBLE_EQ(min(xs), -1.0);
  EXPECT_DOUBLE_EQ(max(xs), 7.0);
}

TEST(DescriptiveStats, MedianOdd) {
  const std::vector<double> xs = {5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(median(xs), 3.0);
}

TEST(DescriptiveStats, MedianEvenInterpolates) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(median(xs), 2.5);
}

TEST(DescriptiveStats, PercentileEndpoints) {
  const std::vector<double> xs = {10.0, 20.0, 30.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 30.0);
}

TEST(DescriptiveStats, PercentileInterpolation) {
  const std::vector<double> xs = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 25.0), 2.5);
}

TEST(DescriptiveStats, PercentileOutOfRangeThrows) {
  const std::vector<double> xs = {1.0};
  EXPECT_THROW(percentile(xs, 101.0), InvalidArgument);
}

TEST(DescriptiveStats, PearsonPerfectCorrelation) {
  const std::vector<double> xs = {1.0, 2.0, 3.0};
  const std::vector<double> ys = {2.0, 4.0, 6.0};
  EXPECT_NEAR(pearson(xs, ys), 1.0, 1e-12);
}

TEST(DescriptiveStats, PearsonAntiCorrelation) {
  const std::vector<double> xs = {1.0, 2.0, 3.0};
  const std::vector<double> ys = {6.0, 4.0, 2.0};
  EXPECT_NEAR(pearson(xs, ys), -1.0, 1e-12);
}

TEST(DescriptiveStats, PearsonConstantIsZero) {
  const std::vector<double> xs = {1.0, 2.0, 3.0};
  const std::vector<double> ys = {5.0, 5.0, 5.0};
  EXPECT_DOUBLE_EQ(pearson(xs, ys), 0.0);
}

TEST(DescriptiveStats, VariationAndRangeRatio) {
  const std::vector<double> xs = {1.0, 2.0};
  EXPECT_DOUBLE_EQ(range_ratio(xs), 2.0);
  EXPECT_NEAR(variation(xs), std::sqrt(0.5) / 1.5, 1e-12);
}

TEST(DescriptiveStats, RangeRatioRejectsNonPositive) {
  const std::vector<double> xs = {0.0, 2.0};
  EXPECT_THROW(range_ratio(xs), InvalidArgument);
}

// ---------------------------------------------------------------------------

TEST(SpecialFunctions, IncompleteBetaEndpoints) {
  EXPECT_DOUBLE_EQ(incomplete_beta(2.0, 3.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(incomplete_beta(2.0, 3.0, 1.0), 1.0);
}

TEST(SpecialFunctions, IncompleteBetaSymmetry) {
  // I_x(a,b) = 1 - I_{1-x}(b,a)
  const double x = 0.37;
  EXPECT_NEAR(incomplete_beta(2.5, 1.5, x),
              1.0 - incomplete_beta(1.5, 2.5, 1.0 - x), 1e-10);
}

TEST(SpecialFunctions, IncompleteBetaUniformCase) {
  // I_x(1,1) = x.
  for (double x : {0.1, 0.5, 0.9}) {
    EXPECT_NEAR(incomplete_beta(1.0, 1.0, x), x, 1e-10);
  }
}

TEST(SpecialFunctions, NormalCdfKnownValues) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(normal_cdf(1.959963985), 0.975, 1e-6);
  EXPECT_NEAR(normal_cdf(-1.959963985), 0.025, 1e-6);
}

TEST(SpecialFunctions, NormalQuantileInvertsCdf) {
  for (double p : {0.01, 0.1, 0.5, 0.9, 0.975, 0.999}) {
    EXPECT_NEAR(normal_cdf(normal_quantile(p)), p, 1e-8);
  }
}

TEST(SpecialFunctions, NormalQuantileDomain) {
  EXPECT_THROW(normal_quantile(0.0), InvalidArgument);
  EXPECT_THROW(normal_quantile(1.0), InvalidArgument);
}

TEST(SpecialFunctions, StudentTCdfSymmetry) {
  EXPECT_NEAR(student_t_cdf(0.0, 5.0), 0.5, 1e-12);
  EXPECT_NEAR(student_t_cdf(1.3, 7.0) + student_t_cdf(-1.3, 7.0), 1.0, 1e-10);
}

TEST(SpecialFunctions, StudentTKnownQuantile) {
  // t_{0.975, 10} = 2.228139.
  EXPECT_NEAR(student_t_cdf(2.228139, 10.0), 0.975, 1e-5);
}

TEST(SpecialFunctions, StudentTApproachesNormal) {
  EXPECT_NEAR(student_t_cdf(1.96, 1e6), normal_cdf(1.96), 1e-4);
}

TEST(SpecialFunctions, TTestPValue) {
  // Two-sided p for t=2.228139, nu=10 is 0.05.
  EXPECT_NEAR(t_test_p_value(2.228139, 10.0), 0.05, 1e-4);
  EXPECT_NEAR(t_test_p_value(-2.228139, 10.0), 0.05, 1e-4);
}

TEST(SpecialFunctions, TTestPValueIsTheOneDfPartialFPValue) {
  // Stepwise selection's partial-F test on one predictor: F = t^2 with
  // (1, nu) degrees of freedom, and F_{0.95}(1, 10) = 4.9646.
  EXPECT_NEAR(t_test_p_value(std::sqrt(4.9646), 10.0), 0.05, 1e-4);
}

// ---------------------------------------------------------------------------

TEST(RunningStats, MatchesBatchStatistics) {
  const std::vector<double> xs = {1.5, 2.5, -3.0, 4.0, 0.0, 7.25};
  RunningStats rs;
  for (double x : xs) rs.add(x);
  EXPECT_EQ(rs.count(), xs.size());
  EXPECT_NEAR(rs.mean(), mean(xs), 1e-12);
  EXPECT_NEAR(rs.variance(), variance(xs), 1e-12);
  EXPECT_DOUBLE_EQ(rs.min(), -3.0);
  EXPECT_DOUBLE_EQ(rs.max(), 7.25);
}

TEST(RunningStats, EmptyIsSafe) {
  RunningStats rs;
  EXPECT_EQ(rs.count(), 0u);
  EXPECT_DOUBLE_EQ(rs.mean(), 0.0);
  EXPECT_DOUBLE_EQ(rs.variance(), 0.0);
}

TEST(RunningStats, MergeEqualsConcatenation) {
  const std::vector<double> a = {1.0, 2.0, 3.0};
  const std::vector<double> b = {10.0, -5.0};
  RunningStats ra;
  RunningStats rb;
  RunningStats all;
  for (double x : a) {
    ra.add(x);
    all.add(x);
  }
  for (double x : b) {
    rb.add(x);
    all.add(x);
  }
  ra.merge(rb);
  EXPECT_EQ(ra.count(), all.count());
  EXPECT_NEAR(ra.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(ra.variance(), all.variance(), 1e-12);
  EXPECT_DOUBLE_EQ(ra.min(), all.min());
  EXPECT_DOUBLE_EQ(ra.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a;
  a.add(1.0);
  a.add(2.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_NEAR(empty.mean(), 1.5, 1e-12);
}

}  // namespace
}  // namespace dsml::stats
