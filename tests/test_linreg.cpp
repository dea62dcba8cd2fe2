#include "ml/linreg.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/rng.hpp"
#include "data/encoder.hpp"
#include "ml/metrics.hpp"

namespace dsml::ml {
namespace {

// y = 3 + 2*x1 - 1.5*x2 (+ optional noise), with distractor columns.
data::Dataset make_linear_data(std::size_t n, double noise_sd,
                               std::uint64_t seed,
                               bool with_distractors = false) {
  Rng rng(seed);
  std::vector<double> x1(n);
  std::vector<double> x2(n);
  std::vector<double> d1(n);
  std::vector<double> d2(n);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x1[i] = rng.uniform(0.0, 10.0);
    x2[i] = rng.uniform(0.0, 10.0);
    d1[i] = rng.uniform(0.0, 10.0);
    d2[i] = rng.uniform(0.0, 10.0);
    y[i] = 100.0 + 2.0 * x1[i] - 1.5 * x2[i] + rng.gaussian(0.0, noise_sd);
  }
  data::Dataset ds;
  ds.add_feature(data::Column::numeric("x1", std::move(x1)));
  ds.add_feature(data::Column::numeric("x2", std::move(x2)));
  if (with_distractors) {
    ds.add_feature(data::Column::numeric("d1", std::move(d1)));
    ds.add_feature(data::Column::numeric("d2", std::move(d2)));
  }
  ds.set_target("y", std::move(y));
  return ds;
}

TEST(FitOls, RecoversCoefficientsOnScaledData) {
  const data::Dataset ds = make_linear_data(100, 0.0, 1);
  LinearRegression::Options opt;
  opt.method = LinRegMethod::kEnter;
  LinearRegression model(opt);
  model.fit(ds);
  const auto predicted = model.predict(ds);
  EXPECT_LT(mape(predicted, ds.target()), 1e-8);
  EXPECT_NEAR(model.ols().r2, 1.0, 1e-12);
}

TEST(FitOls, InferenceStatisticsSensible) {
  const data::Dataset ds = make_linear_data(200, 1.0, 2);
  LinearRegression::Options opt;
  opt.method = LinRegMethod::kEnter;
  LinearRegression model(opt);
  model.fit(ds);
  const OlsFit& fit = model.ols();
  ASSERT_EQ(fit.columns.size(), 3u);  // intercept + 2 predictors
  // True predictors must be highly significant.
  EXPECT_LT(fit.p_values[1], 1e-6);
  EXPECT_LT(fit.p_values[2], 1e-6);
  EXPECT_GT(fit.r2, 0.9);
  EXPECT_LE(fit.adjusted_r2, fit.r2 + 1e-12);
  EXPECT_EQ(fit.n, 200u);
  EXPECT_EQ(fit.dof, 197u);
}

TEST(FitOls, RequiresOverdeterminedSystem) {
  linalg::Matrix x(2, 3, 1.0);
  const std::vector<double> y = {1.0, 2.0};
  const std::vector<std::size_t> cols = {0, 1, 2};
  EXPECT_THROW(fit_ols(x, y, cols), InvalidArgument);
}

TEST(BackwardSelection, DropsDistractors) {
  const data::Dataset ds = make_linear_data(300, 0.5, 3, true);
  LinearRegression::Options opt;
  opt.method = LinRegMethod::kBackward;
  LinearRegression model(opt);
  model.fit(ds);
  const auto selected = model.selected_predictors();
  EXPECT_NE(std::find(selected.begin(), selected.end(), "x1"), selected.end());
  EXPECT_NE(std::find(selected.begin(), selected.end(), "x2"), selected.end());
  EXPECT_EQ(std::find(selected.begin(), selected.end(), "d1"), selected.end());
  EXPECT_EQ(std::find(selected.begin(), selected.end(), "d2"), selected.end());
}

TEST(ForwardSelection, FindsTruePredictors) {
  const data::Dataset ds = make_linear_data(300, 0.5, 4, true);
  LinearRegression::Options opt;
  opt.method = LinRegMethod::kForward;
  LinearRegression model(opt);
  model.fit(ds);
  const auto selected = model.selected_predictors();
  EXPECT_NE(std::find(selected.begin(), selected.end(), "x1"), selected.end());
  EXPECT_NE(std::find(selected.begin(), selected.end(), "x2"), selected.end());
}

TEST(StepwiseSelection, MatchesForwardOnCleanData) {
  const data::Dataset ds = make_linear_data(300, 0.5, 5, true);
  LinearRegression::Options fopt;
  fopt.method = LinRegMethod::kForward;
  LinearRegression forward(fopt);
  forward.fit(ds);
  LinearRegression::Options sopt;
  sopt.method = LinRegMethod::kStepwise;
  LinearRegression stepwise(sopt);
  stepwise.fit(ds);
  EXPECT_EQ(forward.selected_predictors(), stepwise.selected_predictors());
}

TEST(LinearRegression, PredictsHeldOutData) {
  const data::Dataset train = make_linear_data(150, 0.5, 6);
  const data::Dataset test = make_linear_data(50, 0.5, 7);
  LinearRegression model;
  model.fit(train);
  const auto predicted = model.predict(test);
  EXPECT_LT(mape(predicted, test.target()), 2.0);
}

TEST(LinearRegression, HandlesExactlyCollinearColumns) {
  // Duplicate predictor columns must not blow up any method (the SPEC data
  // has total_cores == chips * cores_per_chip style identities).
  Rng rng(8);
  const std::size_t n = 80;
  std::vector<double> x(n);
  std::vector<double> x_dup(n);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = rng.uniform(0.0, 5.0);
    x_dup[i] = 2.0 * x[i];
    y[i] = 10.0 + 3.0 * x[i] + rng.gaussian(0.0, 0.1);
  }
  data::Dataset ds;
  ds.add_feature(data::Column::numeric("x", std::move(x)));
  ds.add_feature(data::Column::numeric("x_dup", std::move(x_dup)));
  ds.set_target("y", std::move(y));
  for (LinRegMethod method :
       {LinRegMethod::kEnter, LinRegMethod::kBackward, LinRegMethod::kForward,
        LinRegMethod::kStepwise}) {
    LinearRegression::Options opt;
    opt.method = method;
    LinearRegression model(opt);
    model.fit(ds);
    const auto predicted = model.predict(ds);
    EXPECT_LT(mape(predicted, ds.target()), 2.0) << to_string(method);
  }
}

TEST(LinearRegression, StandardizedBetasOrdering) {
  // x1's contribution dwarfs x2's, so its standardized beta must lead.
  Rng rng(9);
  const std::size_t n = 200;
  std::vector<double> x1(n);
  std::vector<double> x2(n);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x1[i] = rng.uniform(0.0, 10.0);
    x2[i] = rng.uniform(0.0, 10.0);
    y[i] = 100.0 + 10.0 * x1[i] + 0.5 * x2[i] + rng.gaussian(0.0, 0.5);
  }
  data::Dataset ds;
  ds.add_feature(data::Column::numeric("x1", std::move(x1)));
  ds.add_feature(data::Column::numeric("x2", std::move(x2)));
  ds.set_target("y", std::move(y));
  LinearRegression::Options opt;
  opt.method = LinRegMethod::kEnter;
  LinearRegression model(opt);
  model.fit(ds);
  const auto betas = model.standardized_betas();
  ASSERT_GE(betas.size(), 2u);
  EXPECT_EQ(betas[0].name, "x1");
  EXPECT_GT(betas[0].importance, betas[1].importance);
  // importance() is the same ranking.
  EXPECT_EQ(model.importance()[0].name, "x1");
}

TEST(LinearRegression, NamesMatchPaper) {
  EXPECT_EQ(LinearRegression({LinRegMethod::kEnter, 0.05, 0.10, 0}).name(),
            "LR-E");
  EXPECT_EQ(LinearRegression({LinRegMethod::kStepwise, 0.05, 0.10, 0}).name(),
            "LR-S");
  EXPECT_EQ(LinearRegression({LinRegMethod::kForward, 0.05, 0.10, 0}).name(),
            "LR-F");
  EXPECT_EQ(LinearRegression({LinRegMethod::kBackward, 0.05, 0.10, 0}).name(),
            "LR-B");
}

TEST(LinearRegression, UnfittedThrows) {
  LinearRegression model;
  data::Dataset ds = make_linear_data(10, 0.0, 10);
  EXPECT_FALSE(model.fitted());
  EXPECT_THROW(model.predict(ds), InvalidArgument);
  EXPECT_THROW(model.ols(), InvalidArgument);
}

TEST(LinearRegression, MissingTargetThrows) {
  data::Dataset ds;
  ds.add_feature(data::Column::numeric("x", {1.0, 2.0, 3.0}));
  LinearRegression model;
  EXPECT_THROW(model.fit(ds), InvalidArgument);
}

TEST(LinearRegression, InvalidOptionsThrow) {
  LinearRegression::Options opt;
  opt.entry_p = 0.2;
  opt.removal_p = 0.1;  // removal below entry
  EXPECT_THROW(LinearRegression{opt}, InvalidArgument);
}

TEST(LinearRegression, CategoricalOrderedUsedUnorderedDropped) {
  Rng rng(11);
  const std::size_t n = 120;
  std::vector<std::string> ordered_vals;
  std::vector<std::string> unordered_vals;
  std::vector<double> y;
  const std::vector<std::string> levels = {"small", "medium", "large"};
  for (std::size_t i = 0; i < n; ++i) {
    const auto k = static_cast<std::size_t>(rng.below(3));
    ordered_vals.push_back(levels[k]);
    unordered_vals.push_back(rng.chance(0.5) ? "amd" : "intel");
    y.push_back(10.0 + 5.0 * static_cast<double>(k) +
                rng.gaussian(0.0, 0.2));
  }
  data::Dataset ds;
  ds.add_feature(data::Column::categorical_with_levels(
      "size", levels, std::move(ordered_vals), /*ordered=*/true));
  ds.add_feature(data::Column::categorical("vendor", std::move(unordered_vals)));
  ds.set_target("y", std::move(y));
  LinearRegression model;
  model.fit(ds);
  const auto selected = model.selected_predictors();
  EXPECT_NE(std::find(selected.begin(), selected.end(), "size"),
            selected.end());
  // vendor was not even encodable for LR.
  EXPECT_EQ(std::find(selected.begin(), selected.end(), "vendor"),
            selected.end());
  EXPECT_LT(mape(model.predict(ds), ds.target()), 3.0);
}

TEST(LinearRegression, PredictMatchesEncodeSelectMultiply) {
  // predict() fuses the column selection into its gather GEMV; for a prefix
  // selection and a sparse one alike it must equal, bit for bit, the plain
  // pipeline: encode, materialise the selected columns, multiply by beta. 1500 rows span several of predict's 512-row
  // chunks. The distractor d sits between the two true predictors, so
  // dropping it leaves a non-prefix selection.
  Rng rng(97);
  const std::size_t n = 1500;
  std::vector<double> x1(n);
  std::vector<double> d(n);
  std::vector<double> x2(n);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x1[i] = rng.uniform(0.0, 10.0);
    d[i] = rng.uniform(0.0, 10.0);
    x2[i] = rng.uniform(0.0, 10.0);
    y[i] = 100.0 + 2.0 * x1[i] - 1.5 * x2[i] + rng.gaussian(0.0, 1.0);
  }
  data::Dataset full;
  full.add_feature(data::Column::numeric("x1", std::move(x1)));
  full.add_feature(data::Column::numeric("d", std::move(d)));
  full.add_feature(data::Column::numeric("x2", std::move(x2)));
  full.set_target("y", std::move(y));
  std::vector<std::size_t> sample;
  for (std::size_t i = 0; i < n; i += 10) sample.push_back(i);
  const data::Dataset train = full.select_rows(sample);

  // LinearRegression's own encoder settings, rebuilt from public pieces.
  data::EncoderOptions enc;
  enc.mode = data::EncodingMode::kLinearRegression;
  enc.scale_inputs = true;
  enc.scale_target = false;
  enc.drop_constant = true;
  enc.add_intercept = true;
  data::Encoder encoder;
  encoder.fit(train, enc);
  const linalg::Matrix x = encoder.encode(full);

  for (const LinRegMethod method :
       {LinRegMethod::kEnter, LinRegMethod::kBackward}) {
    LinearRegression::Options opt;
    opt.method = method;
    LinearRegression model(opt);
    model.fit(train);
    const std::vector<std::size_t>& cols = model.ols().columns;
    bool prefix = true;
    for (std::size_t k = 0; k < cols.size(); ++k) prefix &= cols[k] == k;
    // Enter keeps every column (a prefix); backward elimination drops the
    // distractor (a sparse selection).
    EXPECT_EQ(prefix, method == LinRegMethod::kEnter) << to_string(method);

    const std::vector<double> expected =
        x.select_columns(cols).multiply(model.ols().beta);
    const std::vector<double> got = model.predict(full);
    ASSERT_EQ(got.size(), expected.size());
    EXPECT_EQ(std::memcmp(got.data(), expected.data(),
                          got.size() * sizeof(double)),
              0)
        << to_string(method);
  }
}

}  // namespace
}  // namespace dsml::ml
