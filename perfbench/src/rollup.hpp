// Trace rollup: turns the spans of a traced run (Chrome trace-event JSON as
// produced by dsml::trace::stop) into per-layer self time and the share of
// the traced wall that layer spans account for.
//
// Spans carry no parent ids, so nesting is recovered per thread from time
// containment: a span's parent is the innermost earlier span of the same
// thread whose interval contains it. Self time is a span's duration minus
// the part of it that its direct children cover. A span that waits on other
// threads (a parallel_for, a server loop in poll) keeps that wait as self
// time, so per-layer self time sums across threads and can exceed wall time.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string name;
  std::string category;  ///< the owning layer
  double start_us = 0.0;
  double dur_us = 0.0;
  std::uint32_t tid = 0;
};

/// The complete ('X') events of a Chrome trace-event document.
std::vector<SpanRecord> parse_chrome_trace(std::string_view text);

struct Rollup {
  std::map<std::string, double> self_us;  ///< by category, all threads
  double root_us = 0.0;        ///< total duration of the root spans
  double attributed_us = 0.0;  ///< root time covered by any other span
  /// attributed_us / root_us in percent; 0 without a root span.
  double attributed_pct() const;
};

/// Rolls `spans` up by category. Spans of `root_category` are the roots
/// (the benchmark's span around each traced phase); a root's time counts as
/// attributed wherever at least one non-root span, on any thread, is open.
Rollup roll_up(std::vector<SpanRecord> spans, std::string_view root_category);

}  // namespace perfbench
