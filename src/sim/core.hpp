// Trace-driven out-of-order superscalar timing model.
//
// This plays the role SimpleScalar's sim-outorder plays in the paper: it
// turns (configuration, instruction trace) into a cycle count. It runs in
// two passes. A program-order replay of the caches, TLBs and branch
// predictor (sim/replay.hpp) yields each instruction's fetch latency,
// execute latency and mispredict flag; no access depends on timing, so the
// replay is exact. A dependency/resource timing pass in the style of
// trace-driven "timing-first" models then schedules those records:
//
//   fetch    — advances at `width` instructions/cycle, stalling on
//              instruction-cache and ITLB misses and restarting after
//              mispredicted branches resolve;
//   dispatch — in order, bounded by the RUU (instruction window) and LSQ
//              occupancy: instruction i cannot dispatch before instruction
//              i - ruu_size commits;
//   issue    — out of order once operands are ready, bounded by issue width
//              per cycle and by functional-unit availability per class;
//   execute  — per-class latencies; loads add data-cache hierarchy and DTLB
//              latency from real tag-array models;
//   commit   — in order, `width` per cycle.
//
// Every structure the paper's Table 1 varies — cache geometry, branch
// predictor kind, widths, wrong-path issue, RUU/LSQ, TLBs, FU mix — feeds
// into the timing, so the design space has the interactions the surrogate
// models are supposed to learn.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "sim/branch.hpp"
#include "sim/cache.hpp"
#include "sim/config.hpp"
#include "sim/trace.hpp"

namespace dsml::sim {

struct SimStats {
  std::uint64_t instructions = 0;
  std::uint64_t cycles = 0;
  double ipc = 0.0;
  double l1d_miss_rate = 0.0;
  double l1i_miss_rate = 0.0;
  double l2_miss_rate = 0.0;
  double l3_miss_rate = 0.0;
  double branch_mispredict_rate = 0.0;
  double itlb_miss_rate = 0.0;
  double dtlb_miss_rate = 0.0;
  std::uint64_t branch_count = 0;
  std::uint64_t mispredicts = 0;
};

struct SimResult {
  std::uint64_t cycles = 0;
  SimStats stats;
};

/// Latency table (cycles). These mirror common sim-outorder settings for an
/// early-2000s deep pipeline; documented here so benches/tests can reason
/// about them.
struct LatencyModel {
  int decode_pipeline = 3;      ///< fetch→dispatch depth
  int int_alu = 1;
  int int_mult = 3;
  int fp_alu = 2;
  int fp_mult = 4;
  int agen = 1;                 ///< address generation before D$ access
  int l1d_hit = 1;
  int l1d_hit_large = 2;        ///< 64KB L1 pays one extra cycle
  int l2_hit = 12;
  int l2_hit_large = 15;        ///< 1MB L2 pays a little more
  int l3_hit = 40;
  int memory = 170;
  int tlb_miss = 36;
  int mispredict_redirect = 7;  ///< resolve→refetch penalty
};

struct Schedule;

class OutOfOrderCore {
 public:
  explicit OutOfOrderCore(const ProcessorConfig& config,
                          const LatencyModel& latency = {});

  /// Simulate a trace; returns total cycles and detailed statistics. Caches,
  /// TLBs and the predictor carry their state into the next run on the same
  /// instance (the miss rates are then cumulative across runs), which is how
  /// SimPoint's functional warm-up uses it.
  SimResult run(std::span<const Instr> trace);

 private:
  friend Schedule simulate_schedule(const ProcessorConfig& config,
                                    const Trace& trace);
  template <typename Observe>
  SimResult run_observed(std::span<const Instr> trace, Observe&& observe);

  ProcessorConfig config_;
  LatencyModel lat_;
  Cache l1d_;
  Cache l1i_;
  Cache l2_;
  std::optional<Cache> l3_;  // present iff config_.has_l3()
  Tlb itlb_;
  Tlb dtlb_;
  std::unique_ptr<BranchPredictor> predictor_;
};

/// Facade: simulate one configuration against one trace (cold caches). The
/// same as simulate_batch of that one configuration.
SimResult simulate(const ProcessorConfig& config, const Trace& trace);

/// Simulates every configuration against one trace, cold, and returns the
/// results index-aligned with `configs`; each is byte-identical to
/// simulate(configs[i], trace). The replay of each cache, TLB and predictor
/// is computed once per distinct sub-configuration it depends on and shared;
/// only the timing pass runs per configuration. Configurations are
/// processed in groups sharing their L1s, predictor and wrong-path setting,
/// in parallel on the global thread pool.
std::vector<SimResult> simulate_batch(std::span<const ProcessorConfig> configs,
                                      const Trace& trace);

/// Per-instruction cycle stamps of one timing pass, for checking the timing
/// model's invariants (the simulator itself keeps only the cycle count).
struct Schedule {
  std::vector<std::uint64_t> dispatch;
  std::vector<std::uint64_t> issue;
  std::vector<std::uint64_t> commit;
  std::uint64_t cycles = 0;
};

/// simulate() that also records every instruction's schedule.
Schedule simulate_schedule(const ProcessorConfig& config, const Trace& trace);

}  // namespace dsml::sim
