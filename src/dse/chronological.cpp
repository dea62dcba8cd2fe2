#include "dse/chronological.hpp"

#include <limits>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/trace.hpp"
#include "dse/campaign.hpp"

namespace dsml::dse {

const ChronoModelResult& ChronologicalResult::best() const {
  DSML_REQUIRE(!models.empty(), "ChronologicalResult::best: no models");
  const ChronoModelResult* best = &models.front();
  for (const auto& m : models) {
    if (m.error.mean < best->error.mean) best = &m;
  }
  return *best;
}

std::vector<std::string> ChronologicalResult::best_names(
    double tolerance) const {
  const double floor = best().error.mean;
  std::vector<std::string> names;
  for (const auto& m : models) {
    if (m.error.mean <= floor + tolerance) names.push_back(m.model);
  }
  return names;
}

// A thin Campaign configuration: one round whose "sample" is every 2005
// announcement (FullSampler), scored against the 2006 test year, no
// cross-validation estimate. One flaky family (NN-P/NN-E prune aggressively;
// LR stepwise can hit singular systems on collinear announcements) must not
// kill the Table 2 row for the eight others — the campaign's cell-failure
// capture preserves exactly that. Output is byte-identical to the
// pre-campaign driver (pinned by tests/data/dse/chrono_golden.txt).
ChronologicalResult run_chronological(specdata::Family family,
                                      const ChronologicalOptions& options) {
  trace::Span sweep_span(
      [&] {
        return std::string("run_chronological ") + specdata::to_string(family);
      },
      "dse");
  ChronologicalResult result;
  result.family = family;

  const std::vector<specdata::Announcement> records =
      specdata::generate_family(family, options.generator);
  auto [train, test] =
      specdata::chronological_split(records, 2005, options.target);
  result.train_rows = train.n_rows();
  result.test_rows = test.n_rows();

  std::vector<std::string> names = options.model_names;
  if (names.empty()) {
    names = {"LR-E", "LR-S", "LR-B", "LR-F", "NN-Q",
             "NN-D", "NN-M", "NN-P", "NN-E"};
  }

  FullSampler sampler;
  DatasetEvaluator evaluator(train);
  CampaignConfig config;
  config.app = specdata::to_string(family);
  config.space = &train;
  config.score = &test;
  config.sampler = &sampler;
  config.evaluator = &evaluator;
  config.rounds = {SamplerRound{0.0, 0, "2005", 0}};
  config.model_names = names;
  config.zoo = options.zoo;
  config.estimate = false;
  config.eval_failpoint = "dse.chrono.eval";
  config.label_cells = false;  // Table 2 failure records use bare model names

  CampaignResult campaign = Campaign(config).run();
  result.failures = std::move(campaign.failures);

  double best_nn = std::numeric_limits<double>::infinity();
  double best_lr = std::numeric_limits<double>::infinity();
  for (CampaignRound& round : campaign.rounds) {
    for (CampaignCell& cell : round.cells) {
      ChronoModelResult mr;
      mr.model = cell.model;
      mr.fit_seconds = cell.fit_seconds;
      mr.error = ml::summarize_errors(cell.predictions, test.target());
      result.models.push_back(mr);

      const bool is_nn = cell.model.rfind("NN", 0) == 0;
      if (is_nn && mr.error.mean < best_nn) {
        best_nn = mr.error.mean;
        result.nn_importance = cell.fitted->importance();
      }
      if (!is_nn && mr.error.mean < best_lr) {
        best_lr = mr.error.mean;
        result.lr_importance = cell.fitted->importance();
      }
    }
  }
  if (result.models.empty()) {
    throw TrainingError("run_chronological", specdata::to_string(family),
                        "every model failed; first: " +
                            result.failures.front().message);
  }
  return result;
}

}  // namespace dsml::dse
