#include "report.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "common/json.hpp"

namespace perfbench {

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

void MetricSet::add(std::string name, double value, std::string unit) {
  if (!valid_metric_name(name)) {
    throw std::invalid_argument("metric name '" + name + "' is not valid");
  }
  if (find(name) != nullptr) {
    throw std::invalid_argument("metric '" + name + "' reported twice");
  }
  if (!std::isfinite(value)) {
    throw std::invalid_argument("metric '" + name + "' is not finite");
  }
  items_.push_back(Metric{std::move(name), value, std::move(unit)});
}

const Metric* MetricSet::find(std::string_view name) const {
  for (const Metric& m : items_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of no samples");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

std::size_t nearest_rank(std::size_t n, unsigned permille) {
  const std::size_t rank = (permille * n + 999) / 1000;
  return std::max<std::size_t>(1, std::min(rank, n));
}

std::size_t samples_beyond(std::size_t n, unsigned permille) {
  return n == 0 ? 0 : n - nearest_rank(n, permille);
}

bool tail_reportable(std::size_t n, unsigned permille) {
  return samples_beyond(n, permille) >= 10;
}

double percentile(std::span<const double> sorted, unsigned permille) {
  if (sorted.empty()) throw std::invalid_argument("percentile of no samples");
  return sorted[nearest_rank(sorted.size(), permille) - 1];
}

LatencySummary summarize(std::vector<double> samples) {
  LatencySummary s;
  s.samples = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = percentile(samples, 500);
  if (tail_reportable(samples.size(), 990)) s.p99 = percentile(samples, 990);
  return s;
}

KeptPasses keep_fastest(std::span<const double> walls) {
  std::vector<std::size_t> order(walls.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                   std::size_t b) {
    return walls[a] < walls[b];
  });
  order.resize(nearest_rank(walls.size(), 100));
  std::sort(order.begin(), order.end());
  KeptPasses kept;
  kept.index = order;
  std::vector<double> kept_walls;
  for (const std::size_t i : order) {
    kept_walls.push_back(walls[i]);
    kept.total_s += walls[i];
  }
  kept.median_s = median(kept_walls);
  return kept;
}

double Tally::fail_pct() const {
  return attempted == 0 ? 0.0
                        : 100.0 * static_cast<double>(failed) /
                              static_cast<double>(attempted);
}

std::string Context::json() const {
  dsml::json::Writer w(/*compact=*/true);
  w.begin_object()
      .field("nproc", static_cast<std::uint64_t>(nproc))
      .field("pool_threads", static_cast<std::uint64_t>(pool_threads))
      .field("linalg_backend", std::string_view(linalg_backend))
      .field("simd_variant", std::string_view(simd_variant))
      .field("build_type", std::string_view(build_type))
      .field("compiler", std::string_view(compiler))
      .field("commit", std::string_view(commit))
      .end_object();
  std::string line = w.str();
  line.pop_back();  // Writer::str() newline-terminates
  return line;
}

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

std::string result_line(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const MetricSet& metrics) {
  dsml::json::Writer w(/*compact=*/true);
  w.begin_object()
      .field("correct", correct)
      .field("attempted", attempted)
      .field("failed", failed);
  w.key("metrics").begin_object();
  for (const Metric& m : metrics.items()) {
    w.key(m.name).begin_object();
    w.field("value", m.value).field("unit", std::string_view(m.unit));
    w.end_object();
  }
  w.end_object().end_object();
  std::string line = w.str();
  line.pop_back();
  return line;
}

bool response_matches(std::string_view response,
                      std::span<const double> expected) {
  try {
    const dsml::json::Value reply = dsml::json::Value::parse(response);
    if (!reply.contains("ok") || !reply.at("ok").as_bool() ||
        !reply.contains("predictions")) {
      return false;
    }
    const auto& got = reply.at("predictions").items();
    if (got.size() != expected.size()) return false;
    for (std::size_t i = 0; i < got.size(); ++i) {
      const double v = got[i].as_number();
      if (std::memcmp(&v, &expected[i], sizeof v) != 0) return false;
    }
    return true;
  } catch (const std::exception&) {
    return false;  // not JSON, or a field of the wrong type
  }
}

}  // namespace perfbench
