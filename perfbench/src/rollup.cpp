#include "rollup.hpp"

#include <algorithm>
#include <utility>

#include "common/json.hpp"

namespace perfbench {

std::vector<SpanRecord> parse_chrome_trace(std::string_view text) {
  const dsml::json::Value doc = dsml::json::Value::parse(text);
  std::vector<SpanRecord> spans;
  for (const dsml::json::Value& e : doc.at("traceEvents").items()) {
    if (e.at("ph").as_string() != "X") continue;
    SpanRecord s;
    s.name = e.at("name").as_string();
    s.category = e.at("cat").as_string();
    s.start_us = e.at("ts").as_number();
    s.dur_us = e.at("dur").as_number();
    s.tid = static_cast<std::uint32_t>(e.at("tid").as_number());
    spans.push_back(std::move(s));
  }
  return spans;
}

double Rollup::attributed_pct() const {
  return root_us > 0.0 ? 100.0 * attributed_us / root_us : 0.0;
}

namespace {

double end_of(const SpanRecord& s) { return s.start_us + s.dur_us; }

/// Length of the union of [begin, end) intervals.
double union_length(std::vector<std::pair<double, double>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0;
  double open_begin = 0.0;
  double open_end = 0.0;
  bool open = false;
  for (const auto& [b, e] : intervals) {
    if (open && b <= open_end) {
      open_end = std::max(open_end, e);
      continue;
    }
    if (open) total += open_end - open_begin;
    open_begin = b;
    open_end = e;
    open = true;
  }
  if (open) total += open_end - open_begin;
  return total;
}

}  // namespace

Rollup roll_up(std::vector<SpanRecord> spans, std::string_view root_category) {
  // Parents before children: by thread, then start, then longest first.
  std::sort(spans.begin(), spans.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.start_us != b.start_us) return a.start_us < b.start_us;
              return a.dur_us > b.dur_us;
            });
  std::vector<double> covered(spans.size(), 0.0);
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    while (!stack.empty()) {
      const SpanRecord& top = spans[stack.back()];
      if (top.tid == s.tid && end_of(s) <= end_of(top)) break;
      stack.pop_back();
    }
    if (!stack.empty()) covered[stack.back()] += s.dur_us;
    stack.push_back(i);
  }

  Rollup out;
  std::vector<const SpanRecord*> roots;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    out.self_us[s.category] += std::max(0.0, s.dur_us - covered[i]);
    if (s.category == root_category) roots.push_back(&s);
  }
  for (const SpanRecord* root : roots) {
    out.root_us += root->dur_us;
    std::vector<std::pair<double, double>> inside;
    for (const SpanRecord& s : spans) {
      if (s.category == root_category) continue;
      const double b = std::max(s.start_us, root->start_us);
      const double e = std::min(end_of(s), end_of(*root));
      if (b < e) inside.emplace_back(b, e);
    }
    out.attributed_us += union_length(std::move(inside));
  }
  return out;
}

}  // namespace perfbench
