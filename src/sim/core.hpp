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
//
// Every simulation starts cold and runs the one batch path below: simulate
// and simulate_schedule are simulate_batch of a single configuration. The
// latency table is fixed (sim/replay.hpp).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

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

/// simulate() that also records every instruction's schedule: the same
/// replay and timing pass, run as simulate_batch of one configuration.
Schedule simulate_schedule(const ProcessorConfig& config, const Trace& trace);

}  // namespace dsml::sim
