// The benchmark's workloads and the metric catalogue they report into.
//
// Every workload has the same shape: set up (three times, reporting the
// median), then run timed passes until the requested seconds have gone by,
// checking every output; timings come from the fastest tenth of the passes
// (keep_fastest in report.hpp). A traced run (RunOptions::trace) runs
// untraced passes for half the time, then a traced pass that drives each
// layer through its public calls with a span around each, and rolls the
// spans up into the per-layer metrics.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "catalog.hpp"
#include "dse/sweep.hpp"
#include "report.hpp"
#include "rollup.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 0;  ///< kDefaultSeed checks the pinned outputs
  double seconds = 10.0;
  bool trace = false;
};

inline constexpr std::uint64_t kDefaultSeed = 0;

struct RunResult {
  /// Values of kEndToEnd (untraced) or kPerLayer (traced) names
  /// (catalog.hpp).
  std::map<std::string, double> values;
  /// Further numbers printed in the report but not in the result line.
  MetricSet extra;
  Tally tally;
  /// Correctness-gate failures; any entry fails the run.
  std::vector<std::string> errors;

  void check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
};

RunResult run_sweep(const RunOptions& options);
RunResult run_dse(const RunOptions& options);
RunResult run_serve(const RunOptions& options, std::size_t rows_per_request);

// ---- helpers shared by the workloads --------------------------------------

/// Runs `setup` `times` times and returns the median wall time.
double median_setup(int times, const std::function<void()>& setup);

/// Runs `pass` until `seconds` of wall time have gone by (at least once);
/// returns each pass's wall time.
std::vector<double> timed_passes(double seconds,
                                 const std::function<void()>& pass);

/// Order-sensitive digest of a cycle table: the exact sum and an FNV-1a
/// hash of the integral cycle counts in configuration order.
struct CycleDigest {
  double sum = 0.0;
  std::uint64_t fnv = 0;
  bool operator==(const CycleDigest&) const = default;
};
CycleDigest digest(const std::vector<double>& cycles);

/// The sweep both mcf workloads simulate: seven 15k-instruction intervals
/// of which SimPoint keeps one, so every configuration simulates exactly
/// 15k instructions whatever the trace seed; caches off.
dsml::dse::SweepOptions mcf_sweep_options(std::uint64_t trace_seed);

/// The mcf table at the default seed: sweep-mcf's pinned output and
/// dse-mcf's truth table.
extern const CycleDigest kPinnedMcfTable;

/// Stops the trace, rolls its spans up and fills the trace.* and
/// trace.self_s.* values. `traced_wall_s` / `untraced_wall_s` give the
/// tracing overhead. Returns the spans for workload-specific sums.
std::vector<SpanRecord> finish_trace(RunResult& result, double traced_wall_s,
                                     double untraced_wall_s);

/// The root span category of every traced phase.
inline constexpr const char* kRootCategory = "bench";

}  // namespace perfbench
