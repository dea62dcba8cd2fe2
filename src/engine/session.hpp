// Inference sessions: the one serving path from request rows to a registered
// model's predictions.
//
// A request is predicted in one Regressor::predict call over its own rows:
// the batched kernels from the performance layer (Mlp::predict's
// forward_block, LinearRegression's fused gemv_columns) amortize encoding and
// matrix traversal over the request's rows. Requests share nothing but the
// registry, so concurrent callers never wait on each other.
//
// Determinism contract (pinned by tests/test_engine.cpp): every model's
// per-row prediction is independent of its neighbours — encoding is
// row-local and the batched kernels are bit-identical to their per-row
// references — so session results are **bit-identical** to calling
// Regressor::predict directly, and the per-row retry below returns the same
// values the batched call would have.
//
// Failure behaviour: a request whose predict throws degrades to per-row
// retry, so one poisoned row fails alone instead of failing its neighbours
// (`engine.session.degraded` counts it; the `engine.session.flush` /
// `engine.session.row` failpoints inject both stages). A request with more
// rows than the bound is rejected with StateError (`engine.session.admit`
// injects an admission failure).
#pragma once

#include <string>
#include <vector>

#include "engine/registry.hpp"

namespace dsml::engine {

struct SessionOptions {
  /// Most rows one request may carry; a larger request throws StateError
  /// before it reaches the model.
  std::size_t max_queue_rows = 4096;
};

/// Per-request outcome with row granularity, for callers (the serve loop)
/// that must report partial failures instead of throwing.
struct BatchOutcome {
  std::vector<double> values;  ///< per row; NaN where the row failed
  std::vector<std::size_t> failed_rows;   ///< indices of failed rows
  std::vector<std::string> row_errors;    ///< parallel to failed_rows
  bool degraded = false;  ///< the request fell back to per-row predict

  bool ok() const noexcept { return failed_rows.empty(); }
};

/// Predicts `rows` with `entry`'s model. `rows` must match the entry's
/// schema (throws InvalidArgument on mismatch); more than
/// `options.max_queue_rows` rows throws StateError. Row failures are
/// reported in the outcome, not thrown.
BatchOutcome predict_entry(const ModelEntry& entry, const data::Dataset& rows,
                           const SessionOptions& options = {});

class InferenceSession {
 public:
  /// Binds to `model_name` in `registry`. The name is resolved per request,
  /// so a model re-registered mid-session is picked up by the next call.
  /// Throws StateError if the name is not registered at construction.
  InferenceSession(ModelRegistry& registry, std::string model_name,
                   SessionOptions options = {});

  /// Blocking predict (see predict_entry). Throws the first row failure if
  /// any row could not be predicted.
  std::vector<double> predict(const data::Dataset& rows);

  /// predict_entry() against the name's current registry entry.
  BatchOutcome predict_detailed(const data::Dataset& rows);

  const std::string& model_name() const noexcept { return model_name_; }

 private:
  ModelRegistry& registry_;
  std::string model_name_;
  SessionOptions options_;
};

}  // namespace dsml::engine
