// Tests of the benchmark's own logic: the percentile rule, the choice of
// kept passes, the trace rollup's self-time arithmetic, metric naming,
// failure counting, and that the metric catalogue matches BENCHMARK.json.
//
//   perfbench_tests [path/to/BENCHMARK.json]
//
// Exit status 0 when every check passes, 1 otherwise.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "catalog.hpp"
#include "common/json.hpp"
#include "report.hpp"
#include "rollup.hpp"

namespace {

using namespace perfbench;

int g_failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    std::printf("FAIL line %d: %s\n", line, what);
    ++g_failures;
  }
}
#define CHECK(cond) check((cond), #cond, __LINE__)

bool throws(void (*fn)()) {
  try {
    fn();
  } catch (const std::exception&) {
    return true;
  }
  return false;
}

void test_percentile_rule() {
  // Nearest rank: ceil(q * n).
  CHECK(nearest_rank(1000, 990) == 990);
  CHECK(nearest_rank(999, 990) == 990);
  CHECK(nearest_rank(1, 500) == 1);
  CHECK(nearest_rank(4, 500) == 2);
  // p99 needs ten samples beyond it, so 1000 samples.
  CHECK(samples_beyond(1000, 990) == 10);
  CHECK(tail_reportable(1000, 990));
  CHECK(!tail_reportable(999, 990));
  CHECK(tail_reportable(100, 900));
  CHECK(!tail_reportable(99, 900));
  CHECK(!tail_reportable(9999, 999));
  CHECK(tail_reportable(10000, 999));

  std::vector<double> samples;
  for (int i = 999; i >= 1; --i) samples.push_back(i);  // 1..999, unsorted
  LatencySummary s = summarize(samples);
  CHECK(s.samples == 999);
  CHECK(s.p50 == 500.0);
  CHECK(!s.p99.has_value());
  samples.push_back(1000.0);
  s = summarize(samples);
  CHECK(s.p99.has_value() && *s.p99 == 990.0);

  CHECK(median({3.0, 1.0, 2.0}) == 2.0);
  CHECK(median({4.0, 1.0, 2.0, 3.0}) == 2.5);
}

void test_keep_fastest() {
  // Ten passes or fewer keep the fastest one.
  KeptPasses k = keep_fastest(std::vector<double>{3.0, 1.0, 2.0});
  CHECK(k.index == std::vector<std::size_t>{1});
  CHECK(k.median_s == 1.0 && k.total_s == 1.0);
  // Twenty-one keep the fastest three (ceil of a tenth), in pass order.
  std::vector<double> walls(21, 9.0);
  walls[20] = 1.0;
  walls[4] = 3.0;
  walls[7] = 2.0;
  k = keep_fastest(walls);
  CHECK((k.index == std::vector<std::size_t>{4, 7, 20}));
  CHECK(k.median_s == 2.0 && k.total_s == 6.0);
}

void test_self_time() {
  // Thread 0: root [0,100) holding A [10,40) and B [50,90); B holds C
  // [60,70). Thread 1: D [0,50), caused by the root but on another thread.
  std::vector<SpanRecord> spans = {
      {"C", "linalg", 60, 10, 0}, {"root", "bench", 0, 100, 0},
      {"B", "ml", 50, 40, 0},     {"A", "sim", 10, 30, 0},
      {"D", "sim", 0, 50, 1},
  };
  const Rollup r = roll_up(spans, "bench");
  CHECK(r.self_us.at("bench") == 30.0);   // 100 - 30 - 40
  CHECK(r.self_us.at("sim") == 80.0);     // A 30 + D 50
  CHECK(r.self_us.at("ml") == 30.0);      // 40 - 10
  CHECK(r.self_us.at("linalg") == 10.0);
  CHECK(r.root_us == 100.0);
  // Covered by some non-root span: [0,50) by D and A, [50,90) by B.
  CHECK(r.attributed_us == 90.0);
  CHECK(r.attributed_pct() == 90.0);

  // Back-to-back siblings sharing an edge nest under the parent, not each
  // other, and a span outside every root is not attributed.
  const Rollup flat = roll_up({{"r", "bench", 0, 20, 0},
                               {"x", "net", 0, 10, 0},
                               {"y", "net", 10, 10, 0},
                               {"z", "net", 30, 5, 0}},
                              "bench");
  CHECK(flat.self_us.at("bench") == 0.0);
  CHECK(flat.self_us.at("net") == 25.0);
  CHECK(flat.attributed_pct() == 100.0);

  // The rollup reads what dsml::trace::stop() writes.
  const std::string text =
      R"({"displayTimeUnit":"ms","traceEvents":[)"
      R"({"name":"n","cat":"sim","ph":"X","ts":1.5,"dur":2,"pid":1,"tid":3,"args":{"depth":0}},)"
      R"({"name":"c","cat":"metrics","ph":"C","ts":2,"pid":1,"tid":0,"args":{"value":1}}]})";
  const std::vector<SpanRecord> parsed = parse_chrome_trace(text);
  CHECK(parsed.size() == 1);
  CHECK(parsed[0].category == "sim" && parsed[0].start_us == 1.5 &&
        parsed[0].dur_us == 2.0 && parsed[0].tid == 3);
}

void test_metric_names() {
  CHECK(valid_metric_name("setup_s"));
  CHECK(valid_metric_name("ml.cv_s.NN-E"));
  CHECK(valid_metric_name("9lives"));
  CHECK(valid_metric_name(std::string(64, 'a')));
  CHECK(!valid_metric_name(""));
  CHECK(!valid_metric_name(std::string(65, 'a')));
  CHECK(!valid_metric_name("-leading"));
  CHECK(!valid_metric_name(".leading"));
  CHECK(!valid_metric_name("has space"));
  CHECK(!valid_metric_name("slash/es"));
  CHECK(!valid_metric_name("caf\xc3\xa9"));
  const auto bad_name = [] { MetricSet().add("bad name", 1.0, "s"); };
  const auto repeated = [] {
    MetricSet m;
    m.add("x", 1.0, "s");
    m.add("x", 2.0, "s");
  };
  const auto not_finite = [] { MetricSet().add("x", std::nan(""), "s"); };
  CHECK(throws(bad_name));
  CHECK(throws(repeated));
  CHECK(throws(not_finite));
  for (const auto* list : {&kEndToEnd, &kPerLayer}) {
    for (const MetricSpec& spec : *list) CHECK(valid_metric_name(spec.name));
  }
}

void test_fail_pct() {
  const std::vector<double> expected = {1.5, 2.25};
  const std::string ok =
      R"({"ok":true,"model":"m","version":1,"predictions":[1.5,2.25]})";
  // What net::Server answers a connection it sheds at capacity.
  const std::string refused =
      R"json({"ok":false,"error":"server at connection capacity (64)","error_type":"StateError"})json";
  const std::string partial =
      R"({"ok":false,"partial":true,"model":"m","version":1,"predictions":[1.5,null]})";
  const std::string off_by_one_ulp =
      R"({"ok":true,"model":"m","version":1,"predictions":[1.5000000000000002,2.25]})";
  CHECK(response_matches(ok, expected));
  CHECK(!response_matches(refused, expected));
  CHECK(!response_matches(partial, expected));
  CHECK(!response_matches(off_by_one_ulp, expected));
  CHECK(!response_matches(
      R"({"ok":false,"model":"m","version":1,"predictions":[1.5,2.25]})",
      expected));
  CHECK(!response_matches("not json", expected));
  CHECK(!response_matches(ok, std::vector<double>{1.5}));

  Tally tally;
  for (const std::string* response : {&ok, &refused, &ok, &partial}) {
    if (response_matches(*response, expected)) {
      tally.ok();
    } else {
      tally.fail();
    }
  }
  tally.fail(4);  // a connection refused before its last four requests
  CHECK(tally.attempted == 8 && tally.failed == 6);
  CHECK(tally.fail_pct() == 75.0);
  CHECK(Tally{}.fail_pct() == 0.0);
}

void test_catalogue_matches(const char* path) {
  const dsml::json::Value doc = dsml::json::Value::parse_file(path);
  const auto same = [](const dsml::json::Value& listed,
                       const std::vector<MetricSpec>& catalogue) {
    if (listed.items().size() != catalogue.size()) return false;
    for (std::size_t i = 0; i < catalogue.size(); ++i) {
      const dsml::json::Value& m = listed.items()[i];
      if (m.at("name").as_string() != catalogue[i].name ||
          m.at("unit").as_string() != catalogue[i].unit) {
        return false;
      }
    }
    return true;
  };
  CHECK(same(doc.at("end_to_end"), kEndToEnd));
  CHECK(same(doc.at("per_layer"), kPerLayer));
}

}  // namespace

int main(int argc, char** argv) {
  test_percentile_rule();
  test_keep_fastest();
  test_self_time();
  test_metric_names();
  test_fail_pct();
  if (argc > 1) test_catalogue_matches(argv[1]);
  std::printf("%s (%d failed check%s)\n", g_failures == 0 ? "ok" : "FAILED",
              g_failures, g_failures == 1 ? "" : "s");
  return g_failures == 0 ? 0 : 1;
}
