// Measurement and reporting primitives of the repository benchmark: metric
// naming, the median/percentile rules, failure counting, the run context,
// and the one-line JSON result every run ends with.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// A metric name is 1..64 characters of [A-Za-z0-9_.-] starting with a
/// letter or digit.
bool valid_metric_name(std::string_view name);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Metrics in insertion order. add() throws std::invalid_argument on a bad
/// or repeated name or a non-finite value, so a malformed result can never
/// reach the output line.
class MetricSet {
 public:
  void add(std::string name, double value, std::string unit);
  const std::vector<Metric>& items() const { return items_; }
  const Metric* find(std::string_view name) const;

 private:
  std::vector<Metric> items_;
};

/// Median of a non-empty sample; the mean of the two middle values when
/// the size is even.
double median(std::vector<double> values);

/// Nearest-rank percentiles. `permille` is the percentile times ten, so 500
/// is p50 and 990 is p99. The rank is ceil(permille * n / 1000), at least 1.
std::size_t nearest_rank(std::size_t n, unsigned permille);
/// Samples strictly above the nearest-rank percentile.
std::size_t samples_beyond(std::size_t n, unsigned permille);
/// A tail percentile is reported only when at least ten samples lie beyond
/// it: p99 needs 1000 samples, p90 needs 100.
bool tail_reportable(std::size_t n, unsigned permille);
/// Percentile of an ascending, non-empty sample.
double percentile(std::span<const double> sorted, unsigned permille);

/// A latency distribution reduced to what the benchmark reports.
struct LatencySummary {
  std::size_t samples = 0;
  double p50 = 0.0;
  std::optional<double> p99;  ///< only with >= 1000 samples
};
LatencySummary summarize(std::vector<double> samples);

/// The passes a run's timings are taken from: the fastest tenth of them
/// (nearest rank, at least one). On a host shared with other tenants a
/// single-threaded pass can run at half speed for seconds at a time; the
/// fastest passes measure the program rather than its neighbours.
struct KeptPasses {
  std::vector<std::size_t> index;  ///< kept passes, in pass order
  double median_s = 0.0;           ///< median wall of the kept passes
  double total_s = 0.0;            ///< summed wall of the kept passes
};
KeptPasses keep_fastest(std::span<const double> walls);

/// Attempted/failed counts of one run. A refused or unanswered unit of work
/// is recorded with fail(): it never produced a result, so it counts as
/// missing any latency limit.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void ok(std::uint64_t n = 1) { attempted += n; }
  void fail(std::uint64_t n = 1) {
    attempted += n;
    failed += n;
  }
  /// failed / attempted in percent; 0 when nothing was attempted.
  double fail_pct() const;
};

/// The run context printed with every result. Two results are comparable
/// only when every field except `commit` agrees.
struct Context {
  std::size_t nproc = 0;
  std::size_t pool_threads = 0;
  std::string linalg_backend;
  std::string simd_variant;
  std::string build_type;
  std::string compiler;
  std::string commit;
  std::string json() const;
};

/// CPUs this process may run on (the affinity mask), at least 1.
std::size_t nproc();
/// Peak resident set size of this process, in MiB.
double peak_rss_mb();
/// User plus system CPU time of this process so far, in seconds.
double process_cpu_s();

/// The final output line: {"correct", "attempted", "failed", "metrics"}.
std::string result_line(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const MetricSet& metrics);

/// True when `response` is an ok serve-protocol reply whose predictions are
/// bit-equal to `expected`. Error, partial and shed replies are not.
bool response_matches(std::string_view response,
                      std::span<const double> expected);

}  // namespace perfbench
