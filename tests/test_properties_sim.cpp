// Property sweeps over the simulator: invariants that must hold for every
// configuration in the design space, checked on a random subset.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"
#include "sim/core.hpp"
#include "workload/generator.hpp"
#include "workload/profiles.hpp"

namespace dsml::sim {
namespace {

const Trace& shared_trace() {
  static const Trace trace =
      workload::generate_trace(workload::spec_profile("equake"), 20000);
  return trace;
}

std::vector<ProcessorConfig> random_configs(std::size_t count,
                                            std::uint64_t seed) {
  const auto space = enumerate_design_space();
  Rng rng(seed);
  std::vector<ProcessorConfig> out;
  for (std::size_t i : rng.sample_without_replacement(space.size(), count)) {
    out.push_back(space[i]);
  }
  return out;
}

class RandomConfigProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(RandomConfigProperty, SimulationInvariants) {
  const Trace& trace = shared_trace();
  for (const auto& config : random_configs(8, GetParam())) {
    const SimResult result = simulate(config, trace);
    // Cycles bounded below by issue-width throughput and above by a full
    // serialisation at worst-case memory latency per instruction.
    EXPECT_GE(result.cycles, trace.size() / static_cast<std::size_t>(
                                                config.width))
        << config.key();
    EXPECT_LT(result.cycles, trace.size() * 500ULL) << config.key();
    // Rates are rates; counters are consistent.
    const SimStats& s = result.stats;
    EXPECT_EQ(s.instructions, trace.size());
    for (double rate :
         {s.l1d_miss_rate, s.l1i_miss_rate, s.l2_miss_rate, s.l3_miss_rate,
          s.branch_mispredict_rate, s.itlb_miss_rate, s.dtlb_miss_rate}) {
      EXPECT_GE(rate, 0.0) << config.key();
      EXPECT_LE(rate, 1.0) << config.key();
    }
    EXPECT_NEAR(s.ipc,
                static_cast<double>(s.instructions) /
                    static_cast<double>(s.cycles),
                1e-9);
    if (config.branch_predictor == BranchPredictorKind::kPerfect) {
      EXPECT_EQ(s.mispredicts, 0u) << config.key();
    }
  }
}

TEST_P(RandomConfigProperty, DeterministicAcrossRuns) {
  const Trace& trace = shared_trace();
  for (const auto& config : random_configs(4, GetParam() + 100)) {
    EXPECT_EQ(simulate(config, trace).cycles, simulate(config, trace).cycles)
        << config.key();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomConfigProperty,
                         ::testing::Values(1, 2, 3, 4));

// Timing-model invariants on every configuration of the design space, from
// each instruction's recorded schedule.
TEST(TimingInvariants, HoldOnTheWholeDesignSpace) {
  const Trace trace =
      workload::generate_trace(workload::spec_profile("mcf"), 1500, 3);
  const std::size_t n = trace.size();
  const std::vector<ProcessorConfig> space = enumerate_design_space();
  const std::vector<SimResult> batch = simulate_batch(space, trace);
  for (std::size_t k = 0; k < space.size(); ++k) {
    const ProcessorConfig& config = space[k];
    const auto width = static_cast<std::size_t>(config.width);
    const Schedule s = simulate_schedule(config, trace);
    ASSERT_EQ(s.cycles, batch[k].cycles) << config.key();
    ASSERT_GE(s.cycles * width, n) << config.key();
    ASSERT_EQ(s.cycles, s.commit.back()) << config.key();
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_GT(s.issue[i], s.dispatch[i]) << config.key() << " @" << i;
      ASSERT_GT(s.commit[i], s.issue[i]) << config.key() << " @" << i;
      if (i > 0) {
        ASSERT_GE(s.commit[i], s.commit[i - 1]) << config.key();
      }
    }
    // At most `width` dispatches and commits land in any one cycle.
    for (std::vector<std::uint64_t> cycles : {s.dispatch, s.commit}) {
      std::sort(cycles.begin(), cycles.end());
      std::size_t run = 0;
      for (std::size_t i = 0; i < n; ++i) {
        run = i > 0 && cycles[i] == cycles[i - 1] ? run + 1 : 1;
        ASSERT_LE(run, width) << config.key() << " cycle " << cycles[i];
      }
    }
  }
}

class AppTraceProperty : public ::testing::TestWithParam<const char*> {};

TEST_P(AppTraceProperty, AllPredictorsBeatOrMatchNothingButPerfectIsBest) {
  const Trace trace =
      workload::generate_trace(workload::spec_profile(GetParam()), 20000);
  ProcessorConfig config;
  std::uint64_t perfect_cycles = 0;
  for (BranchPredictorKind kind :
       {BranchPredictorKind::kPerfect, BranchPredictorKind::kBimodal,
        BranchPredictorKind::kTwoLevel, BranchPredictorKind::kCombination}) {
    config.branch_predictor = kind;
    const auto result = simulate(config, trace);
    if (kind == BranchPredictorKind::kPerfect) {
      perfect_cycles = result.cycles;
    } else {
      EXPECT_GE(result.cycles, perfect_cycles)
          << GetParam() << " " << to_string(kind);
    }
  }
}

TEST_P(AppTraceProperty, UpgradingEverythingNeverHurts) {
  const Trace trace =
      workload::generate_trace(workload::spec_profile(GetParam()), 20000);
  ProcessorConfig weakest;
  weakest.l1d_size_kb = 16;
  weakest.l1i_size_kb = 16;
  weakest.l2_size_kb = 256;
  weakest.branch_predictor = BranchPredictorKind::kBimodal;
  weakest.width = 4;
  weakest.ruu_size = 128;
  weakest.lsq_size = 64;
  weakest.itlb_size_kb = 256;
  weakest.dtlb_size_kb = 512;
  weakest.fu = {4, 2, 2, 4, 2};
  ProcessorConfig strongest = weakest;
  strongest.l1d_size_kb = 64;
  strongest.l1i_size_kb = 64;
  strongest.l1d_line_b = 64;
  strongest.l1i_line_b = 64;
  strongest.l2_size_kb = 1024;
  strongest.l2_assoc = 8;
  strongest.l3_size_mb = 8;
  strongest.l3_line_b = 256;
  strongest.l3_assoc = 8;
  strongest.branch_predictor = BranchPredictorKind::kPerfect;
  strongest.width = 8;
  strongest.fu = {8, 4, 4, 8, 4};
  strongest.ruu_size = 256;
  strongest.lsq_size = 128;
  strongest.itlb_size_kb = 1024;
  strongest.dtlb_size_kb = 2048;
  EXPECT_LT(simulate(strongest, trace).cycles,
            simulate(weakest, trace).cycles)
      << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Apps, AppTraceProperty,
                         ::testing::Values("applu", "equake", "gcc", "mesa",
                                           "mcf"));

}  // namespace
}  // namespace dsml::sim
