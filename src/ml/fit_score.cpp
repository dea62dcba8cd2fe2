#include "ml/fit_score.hpp"

#include "common/failpoint.hpp"
#include "common/metrics.hpp"
#include "common/thread_pool.hpp"
#include "common/trace.hpp"

namespace dsml::engine {

FitScoreResult fit_and_score(const FitScoreRequest& request) {
  DSML_REQUIRE(request.train != nullptr, "fit_and_score: null train dataset");
  DSML_REQUIRE(request.model.make != nullptr,
               "fit_and_score: model has no factory");
  trace::Span cell_span([&] { return "fit_and_score " + request.model.name; },
                        "engine");
  static metrics::Counter& cells = metrics::counter("engine.fit_score.cells");
  static metrics::Counter& failures =
      metrics::counter("engine.fit_score.failures");
  cells.add();

  FitScoreResult result;
  result.name = request.model.name;
  const auto record = [&](const std::exception& e) {
    return FailureRecord{request.model.name, error_kind(e), e.what()};
  };
  try {
    if (request.failpoint != nullptr) DSML_FAIL(request.failpoint);
  } catch (const std::exception& e) {
    failures.add();
    result.failure = record(e);
    return result;
  }

  // The estimate (stage 0) and the fit/score (stage 1) share only the
  // read-only training set and each builds its own models and seeds, so
  // they run concurrently. The range covers just the requested stages; a
  // single stage runs inline.
  std::optional<FailureRecord> stage_failure[2];
  parallel_for(request.estimate ? 0 : 1, request.fit ? 2 : 1,
               [&](std::size_t stage) {
    try {
      if (stage == 0) {
        result.estimate = ml::estimate_error(request.model.make,
                                             *request.train,
                                             request.validation);
        return;
      }
      auto model = request.model.make();
      trace::Stopwatch fit_timer;
      model->fit(*request.train);
      result.fit_seconds = fit_timer.seconds();
      result.model = std::move(model);
      if (request.score != nullptr) {
        result.predictions = result.model->predict(*request.score);
      }
    } catch (const std::exception& e) {
      stage_failure[stage] = record(e);
    }
  }, 1);
  // A failed estimate is reported as if the fit had never started, which is
  // what the serial cell did; otherwise the fit's own failure is reported.
  if (stage_failure[0] || stage_failure[1]) {
    failures.add();
    result.model.reset();
    result.predictions.clear();
    result.fit_seconds = 0.0;
    result.failure = std::move(stage_failure[0] ? stage_failure[0]
                                                : stage_failure[1]);
  }
  return result;
}

}  // namespace dsml::engine
