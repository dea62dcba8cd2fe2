#include "engine/session.hpp"

#include <limits>
#include <utility>

#include "common/failpoint.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"

namespace dsml::engine {

namespace {

struct SessionMetrics {
  metrics::Counter& batches = metrics::counter("engine.session.batches");
  metrics::Counter& rows = metrics::counter("engine.session.rows");
  metrics::Counter& degraded = metrics::counter("engine.session.degraded");
  metrics::Counter& rejected = metrics::counter("engine.session.rejected");
  metrics::Histogram& batch_rows =
      metrics::histogram("engine.session.batch_rows");
  metrics::Histogram& batch_us = metrics::histogram("engine.session.batch_us");
};

SessionMetrics& session_metrics() {
  static SessionMetrics m;
  return m;
}

/// Predicts every row alone, recording failures instead of throwing, so one
/// poisoned row costs only itself.
BatchOutcome predict_each_row(const ml::Regressor& model,
                              const data::Dataset& rows) {
  BatchOutcome out;
  out.degraded = true;
  out.values.assign(rows.n_rows(),
                    std::numeric_limits<double>::quiet_NaN());
  std::vector<std::size_t> one(1);
  for (std::size_t r = 0; r < rows.n_rows(); ++r) {
    try {
      DSML_FAIL("engine.session.row");
      one[0] = r;
      out.values[r] = model.predict(rows.select_rows(one)).front();
    } catch (const std::exception& e) {
      out.failed_rows.push_back(r);
      out.row_errors.push_back(e.what());
    }
  }
  return out;
}

}  // namespace

BatchOutcome predict_entry(const ModelEntry& entry, const data::Dataset& rows,
                           const SessionOptions& options) {
  const std::string mismatch = entry.schema.mismatch(rows);
  if (!mismatch.empty()) {
    throw InvalidArgument("InferenceSession: request schema does not match '" +
                          entry.name + "' (" + mismatch + ")");
  }
  if (rows.n_rows() == 0) return BatchOutcome{};
  DSML_FAIL("engine.session.admit");
  if (rows.n_rows() > options.max_queue_rows) {
    session_metrics().rejected.add();
    throw StateError("InferenceSession: request of " +
                     std::to_string(rows.n_rows()) +
                     " rows exceeds the row bound " +
                     std::to_string(options.max_queue_rows));
  }

  trace::Span span([&] { return "session.flush " + entry.name; }, "engine");
  session_metrics().batches.add();
  session_metrics().rows.add(rows.n_rows());
  trace::Stopwatch watch;
  BatchOutcome outcome;
  try {
    DSML_FAIL("engine.session.flush");
    outcome.values = entry.model->predict(rows);
  } catch (const std::exception&) {
    session_metrics().degraded.add();
    outcome = predict_each_row(*entry.model, rows);
  }
  session_metrics().batch_rows.observe(static_cast<double>(rows.n_rows()));
  session_metrics().batch_us.observe(watch.seconds() * 1e6);
  return outcome;
}

InferenceSession::InferenceSession(ModelRegistry& registry,
                                   std::string model_name,
                                   SessionOptions options)
    : registry_(registry),
      model_name_(std::move(model_name)),
      options_(options) {
  DSML_REQUIRE(options_.max_queue_rows >= 1,
               "InferenceSession: max_queue_rows must be >= 1");
  registry_.get(model_name_);  // fail fast on an unregistered name
}

std::vector<double> InferenceSession::predict(const data::Dataset& rows) {
  BatchOutcome outcome = predict_detailed(rows);
  if (!outcome.ok()) {
    throw NumericalError(
        "InferenceSession: " + std::to_string(outcome.failed_rows.size()) +
        " of " + std::to_string(rows.n_rows()) + " rows failed; row " +
        std::to_string(outcome.failed_rows.front()) + ": " +
        outcome.row_errors.front());
  }
  return std::move(outcome.values);
}

BatchOutcome InferenceSession::predict_detailed(const data::Dataset& rows) {
  return predict_entry(*registry_.get(model_name_), rows, options_);
}

}  // namespace dsml::engine
