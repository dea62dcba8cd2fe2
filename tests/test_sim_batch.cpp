// simulate_batch against per-configuration simulate: the shared per-structure
// replay must be invisible in the results, for any subset of configurations
// in any order, and for any thread count.
#include <gtest/gtest.h>

#include <cstring>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "sim/core.hpp"
#include "workload/generator.hpp"
#include "workload/profiles.hpp"

namespace dsml::sim {
namespace {

const Trace& shared_trace() {
  static const Trace trace =
      workload::generate_trace(workload::spec_profile("gcc"), 3000, 5);
  return trace;
}

void expect_identical(const SimResult& a, const SimResult& b,
                      const ProcessorConfig& config) {
  EXPECT_EQ(a.cycles, b.cycles) << config.key();
  EXPECT_EQ(std::memcmp(&a.stats, &b.stats, sizeof(SimStats)), 0)
      << config.key();
}

std::vector<ProcessorConfig> random_subset(std::size_t count,
                                           std::uint64_t seed) {
  const std::vector<ProcessorConfig> space = enumerate_design_space();
  Rng rng(seed);
  std::vector<ProcessorConfig> out;
  for (const std::size_t i : rng.sample_without_replacement(space.size(), count)) {
    out.push_back(space[i]);
  }
  return out;
}

TEST(SimulateBatch, EqualsPerConfigSimulateOnRandomSubsets) {
  const Trace& trace = shared_trace();
  for (const std::size_t count : {1, 7, 96}) {
    const std::vector<ProcessorConfig> configs = random_subset(count, count);
    const std::vector<SimResult> batch = simulate_batch(configs, trace);
    ASSERT_EQ(batch.size(), configs.size());
    for (std::size_t k = 0; k < configs.size(); ++k) {
      expect_identical(batch[k], simulate(configs[k], trace), configs[k]);
    }
  }
}

TEST(SimulateBatch, HandlesUntiedAndRepeatedConfigurations) {
  // Outside Table 1's ties: split L1 line sizes, a small-core TLB pair on a
  // big window, and one configuration twice.
  ProcessorConfig a;
  a.l1d_line_b = 64;
  a.l1i_line_b = 32;
  a.issue_wrong = true;
  ProcessorConfig b = a;
  b.itlb_size_kb = 1024;
  b.ruu_size = 256;
  b.l3_size_mb = 8;
  b.l3_line_b = 256;
  b.l3_assoc = 8;
  const std::vector<ProcessorConfig> configs{a, b, a};
  const std::vector<SimResult> batch = simulate_batch(configs, shared_trace());
  for (std::size_t k = 0; k < configs.size(); ++k) {
    expect_identical(batch[k], simulate(configs[k], shared_trace()),
                     configs[k]);
  }
}

TEST(SimulateBatch, NestedAndTopLevelRunsAgree) {
  const Trace& trace = shared_trace();
  const std::vector<ProcessorConfig> configs = random_subset(160, 42);
  // At top level on the global pool (DSML_THREADS workers)...
  const std::vector<SimResult> top_level = simulate_batch(configs, trace);
  // ...and as three concurrent batches nested in a parallel_for, whose
  // inner loops compete for the same workers and so split their chunks
  // across threads differently.
  std::vector<std::vector<SimResult>> nested(3);
  parallel_for(0, nested.size(), [&](std::size_t k) {
    nested[k] = simulate_batch(configs, trace);
  }, 1);
  for (const std::vector<SimResult>& run : nested) {
    ASSERT_EQ(run.size(), top_level.size());
    for (std::size_t k = 0; k < configs.size(); ++k) {
      expect_identical(run[k], top_level[k], configs[k]);
    }
  }
}

TEST(SimulateBatch, EmptyBatchAndEmptyTrace) {
  EXPECT_TRUE(simulate_batch({}, shared_trace()).empty());
  const ProcessorConfig config;
  EXPECT_THROW(simulate_batch(std::span<const ProcessorConfig>(&config, 1),
                              Trace{}),
               InvalidArgument);
}

}  // namespace
}  // namespace dsml::sim
