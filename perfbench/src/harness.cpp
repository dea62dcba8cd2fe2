
#include "common/trace.hpp"
#include "workloads.hpp"

namespace perfbench {

double median_setup(int times, const std::function<void()>& setup) {
  std::vector<double> walls;
  for (int i = 0; i < times; ++i) {
    dsml::trace::Stopwatch timer;
    setup();
    walls.push_back(timer.seconds());
  }
  return median(walls);
}

std::vector<double> timed_passes(double seconds,
                                 const std::function<void()>& pass) {
  std::vector<double> walls;
  dsml::trace::Stopwatch total;
  do {
    dsml::trace::Stopwatch timer;
    pass();
    walls.push_back(timer.seconds());
  } while (total.seconds() < seconds);
  return walls;
}

CycleDigest digest(const std::vector<double>& cycles) {
  CycleDigest d;
  d.fnv = 0xcbf29ce484222325ULL;
  for (const double c : cycles) {
    d.sum += c;
    auto v = static_cast<std::uint64_t>(c);
    for (int byte = 0; byte < 8; ++byte) {
      d.fnv ^= v & 0xff;
      d.fnv *= 0x100000001b3ULL;
      v >>= 8;
    }
  }
  return d;
}

std::vector<SpanRecord> finish_trace(RunResult& result, double traced_wall_s,
                                     double untraced_wall_s) {
  std::vector<SpanRecord> spans = parse_chrome_trace(dsml::trace::stop());
  const Rollup rollup = roll_up(spans, kRootCategory);
  result.values["trace.attributed_pct"] = rollup.attributed_pct();
  result.values["trace.overhead_pct"] =
      100.0 * (traced_wall_s / untraced_wall_s - 1.0);
  for (const char* layer : kLayers) {
    const auto it = rollup.self_us.find(layer);
    result.values[std::string("trace.self_s.") + layer] =
        it == rollup.self_us.end() ? 0.0 : it->second / 1e6;
  }
  return spans;
}

}  // namespace perfbench
