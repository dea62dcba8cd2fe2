#include "ml/validation.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "data/split.hpp"
#include "ml/linreg.hpp"
#include "ml/metrics.hpp"
#include "ml/model_zoo.hpp"
#include "ml/nn_models.hpp"

namespace dsml::ml {
namespace {

data::Dataset make_linear_data(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x1(n);
  std::vector<double> x2(n);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x1[i] = rng.uniform(0.0, 10.0);
    x2[i] = rng.uniform(0.0, 10.0);
    y[i] = 50.0 + 3.0 * x1[i] + 1.0 * x2[i] + rng.gaussian(0.0, 0.5);
  }
  data::Dataset ds;
  ds.add_feature(data::Column::numeric("x1", std::move(x1)));
  ds.add_feature(data::Column::numeric("x2", std::move(x2)));
  ds.set_target("y", std::move(y));
  return ds;
}

ModelFactory lr_factory() {
  return []() -> std::unique_ptr<Regressor> {
    return std::make_unique<LinearRegression>();
  };
}

/// A deliberately bad model: always predicts a constant far from the data.
class BadModel final : public Regressor {
 public:
  void fit(const data::Dataset&) override { fitted_ = true; }
  std::vector<double> predict(const data::Dataset& ds) const override {
    return std::vector<double>(ds.n_rows(), 1.0);
  }
  std::string name() const override { return "Bad"; }
  bool fitted() const noexcept override { return fitted_; }

 private:
  bool fitted_ = false;
};

/// A perfect model: predicts each row's own target, so every fold of every
/// seed scores exactly 0 and two of them tie.
class OracleModel final : public Regressor {
 public:
  void fit(const data::Dataset&) override { fitted_ = true; }
  std::vector<double> predict(const data::Dataset& ds) const override {
    return {ds.target().begin(), ds.target().end()};
  }
  std::string name() const override { return "Oracle"; }
  bool fitted() const noexcept override { return fitted_; }

 private:
  bool fitted_ = false;
};

TEST(EstimateError, ProducesRequestedFolds) {
  const data::Dataset ds = make_linear_data(60, 1);
  ValidationOptions opt;
  opt.repeats = 5;
  const ErrorEstimate est = estimate_error(lr_factory(), ds, opt);
  EXPECT_EQ(est.folds.size(), 5u);
  EXPECT_GE(est.maximum, est.average);
  for (double f : est.folds) {
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, est.maximum);
  }
}

TEST(EstimateError, LowForWellSpecifiedModel) {
  const data::Dataset ds = make_linear_data(120, 2);
  const ErrorEstimate est = estimate_error(lr_factory(), ds);
  EXPECT_LT(est.maximum, 3.0);
}

TEST(EstimateError, DeterministicGivenSeed) {
  const data::Dataset ds = make_linear_data(60, 3);
  ValidationOptions opt;
  opt.seed = 77;
  const ErrorEstimate a = estimate_error(lr_factory(), ds, opt);
  const ErrorEstimate b = estimate_error(lr_factory(), ds, opt);
  EXPECT_EQ(a.folds, b.folds);
}

TEST(EstimateError, EstimateErrorMatchesSerialReference) {
  // estimate_error runs its folds across the thread pool; this replica is
  // the historical serial loop (one Rng, splits consumed in repeat order,
  // fit/predict per fold). The parallel implementation must reproduce it
  // bit-for-bit at any thread count — splits are pre-drawn serially and each
  // fold writes only its own slot.
  const data::Dataset ds = make_linear_data(90, 8);
  ValidationOptions opt;
  opt.repeats = 7;
  opt.seed = 4242;

  Rng rng(opt.seed);
  std::vector<double> serial_folds;
  for (std::size_t rep = 0; rep < opt.repeats; ++rep) {
    const auto [fit_idx, holdout_idx] = data::split_half(ds.n_rows(), rng);
    const data::Dataset fit_part = ds.select_rows(fit_idx);
    const data::Dataset holdout_part = ds.select_rows(holdout_idx);
    auto model = lr_factory()();
    model->fit(fit_part);
    serial_folds.push_back(
        mape(model->predict(holdout_part), holdout_part.target()));
  }

  const ErrorEstimate est = estimate_error(lr_factory(), ds, opt);
  ASSERT_EQ(est.folds.size(), serial_folds.size());
  for (std::size_t rep = 0; rep < serial_folds.size(); ++rep) {
    EXPECT_EQ(est.folds[rep], serial_folds[rep]) << "fold " << rep;
  }
  EXPECT_EQ(est.average, stats::mean(serial_folds));
  EXPECT_EQ(est.maximum, stats::max(serial_folds));
}

TEST(EstimateError, TooFewRowsThrows) {
  const data::Dataset ds = make_linear_data(6, 4);
  EXPECT_THROW(estimate_error(lr_factory(), ds), InvalidArgument);
}

TEST(EstimateError, ZeroRepeatsThrows) {
  const data::Dataset ds = make_linear_data(30, 5);
  ValidationOptions opt;
  opt.repeats = 0;
  EXPECT_THROW(estimate_error(lr_factory(), ds, opt), InvalidArgument);
}

TEST(SelectModel, PicksTheBetterCandidate) {
  const data::Dataset train = make_linear_data(100, 6);
  std::vector<NamedModel> candidates;
  candidates.push_back({"LR-B", lr_factory()});
  candidates.push_back({"Bad", []() -> std::unique_ptr<Regressor> {
                          return std::make_unique<BadModel>();
                        }});
  SelectModel select(std::move(candidates));
  select.fit(train);
  EXPECT_EQ(select.chosen_name(), "LR-B");
  EXPECT_EQ(select.name(), "Select(LR-B)");
  // Its predictions behave like the chosen model's.
  const data::Dataset test = make_linear_data(40, 7);
  EXPECT_LT(mape(select.predict(test), test.target()), 3.0);
}

TEST(SelectModel, ExposesPerCandidateEstimates) {
  const data::Dataset train = make_linear_data(80, 8);
  std::vector<NamedModel> candidates;
  candidates.push_back({"LR-B", lr_factory()});
  candidates.push_back({"Bad", []() -> std::unique_ptr<Regressor> {
                          return std::make_unique<BadModel>();
                        }});
  SelectModel select(std::move(candidates));
  select.fit(train);
  ASSERT_EQ(select.estimates().size(), 2u);
  EXPECT_LT(select.estimates()[0].maximum, select.estimates()[1].maximum);
  EXPECT_DOUBLE_EQ(select.chosen_estimate().maximum,
                   select.estimates()[0].maximum);
}

TEST(SelectModel, MatchesTheSerialCandidateLoop) {
  // Select scores its candidates across the thread pool; each candidate i
  // must still get exactly the estimate a serial loop computes with seed
  // seed + i, and the winner must be the first minimum of the maxima.
  const data::Dataset train = make_linear_data(120, 11);
  ZooOptions zoo;
  zoo.nn_epoch_scale = 0.1;
  ValidationOptions opt;
  opt.seed = 4321;
  const NamedModel oracle{"Oracle", []() -> std::unique_ptr<Regressor> {
                            return std::make_unique<OracleModel>();
                          }};
  // The second menu holds two tied perfect candidates: the first must win.
  const std::vector<std::vector<NamedModel>> menus = {
      {make_model("LR-E", zoo), make_model("LR-B", zoo),
       make_model("NN-S", zoo)},
      {make_model("LR-E", zoo), make_model("NN-S", zoo), oracle,
       {"Oracle-2", oracle.make}}};
  for (const std::vector<NamedModel>& menu : menus) {
    SelectModel select(menu, opt);
    select.fit(train);
    ASSERT_EQ(select.estimates().size(), menu.size());
    std::size_t best = 0;
    double best_maximum = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < menu.size(); ++i) {
      ValidationOptions serial = opt;
      serial.seed = opt.seed + i;
      const ErrorEstimate expected =
          estimate_error(menu[i].make, train, serial);
      const ErrorEstimate& got = select.estimates()[i];
      EXPECT_EQ(got.folds, expected.folds) << menu[i].name;
      EXPECT_EQ(got.average, expected.average) << menu[i].name;
      EXPECT_EQ(got.maximum, expected.maximum) << menu[i].name;
      if (expected.maximum < best_maximum) {
        best_maximum = expected.maximum;
        best = i;
      }
    }
    EXPECT_EQ(select.chosen_name(), menu[best].name);
  }
}

TEST(SelectModel, UnfittedBehaviour) {
  std::vector<NamedModel> candidates;
  candidates.push_back({"LR-B", lr_factory()});
  SelectModel select(std::move(candidates));
  EXPECT_FALSE(select.fitted());
  EXPECT_EQ(select.name(), "Select");
  const data::Dataset ds = make_linear_data(20, 9);
  EXPECT_THROW(select.predict(ds), InvalidArgument);
  EXPECT_THROW(select.chosen_name(), InvalidArgument);
}

TEST(SelectModel, EmptyCandidatesThrows) {
  EXPECT_THROW(SelectModel({}), InvalidArgument);
}

TEST(SelectModel, ImportanceDelegatesToChosen) {
  const data::Dataset train = make_linear_data(100, 10);
  std::vector<NamedModel> candidates;
  candidates.push_back({"LR-B", lr_factory()});
  SelectModel select(std::move(candidates));
  select.fit(train);
  EXPECT_FALSE(select.importance().empty());
}

}  // namespace
}  // namespace dsml::ml
