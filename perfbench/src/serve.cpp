// serve-wide / serve-narrow: an in-process net::Server running
// engine::ServeHandler over the committed tests/data/serve/model.dsml,
// driven by a closed loop of three client connections (one server-loop
// thread, compute pool held to one thread). serve-wide sends 64-row
// requests, serve-narrow 1-row requests.
//
// Requests are drawn from the design space with the seed and built before
// timing; each connection sends its own list once per pass. Every response
// must be ok and bit-equal to a direct Regressor::predict on the same rows.
//
// The traced run starts a fresh server whose RequestHandler is wrapped with
// a span and a timer, so each request's handle time is known and its
// network wait is the client latency minus that time.
#include <pthread.h>
#include <sched.h>

#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "common/json.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/trace.hpp"
#include "engine/design_space.hpp"
#include "engine/registry.hpp"
#include "engine/serve.hpp"
#include "engine/session.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace engine = dsml::engine;
namespace net = dsml::net;
namespace trace = dsml::trace;

constexpr const char* kModelPath = "tests/data/serve/model.dsml";
constexpr const char* kModelName = "applu";
constexpr std::size_t kConnections = 3;
constexpr std::size_t kWarmupRequests = 8;

struct Request {
  std::string line;
  std::vector<std::size_t> rows;  ///< design-space row indices
  std::vector<double> expected;   ///< direct Regressor::predict on `rows`
};

/// A serve-protocol request line for `rows` of the design space.
std::string request_line(const std::vector<std::size_t>& rows) {
  const engine::Schema& schema = engine::design_space_schema();
  const dsml::data::Dataset& space = engine::design_space_dataset();
  dsml::json::Writer w(/*compact=*/true);
  w.begin_object().field("model", kModelName);
  w.key("rows").begin_array();
  for (const std::size_t row : rows) {
    w.begin_object();
    for (const engine::SchemaColumn& c : schema.columns()) {
      const dsml::data::Column& col = space.feature(c.name);
      switch (c.kind) {
        case dsml::data::ColumnKind::kNumeric:
          w.field(c.name, col.numeric_at(row));
          break;
        case dsml::data::ColumnKind::kFlag:
          w.field(c.name, col.code_at(row) != 0);
          break;
        case dsml::data::ColumnKind::kCategorical:
          w.field(c.name, std::string_view(col.label_at(row)));
          break;
      }
    }
    w.end_object();
  }
  w.end_array().end_object();
  std::string line = w.str();
  line.pop_back();  // Writer::str() newline-terminates; the client frames
  return line;
}

/// Each connection's request list: rows dealt from seeded shuffles of the
/// design space, so every request line is distinct (the traced run matches
/// handle times to requests by line).
std::vector<std::vector<Request>> make_requests(std::uint64_t seed,
                                                std::size_t rows_per_request,
                                                std::size_t per_connection) {
  const std::size_t space_rows = engine::design_space_dataset().n_rows();
  dsml::Rng rng(seed);
  std::vector<std::size_t> deck;
  std::size_t next = 0;
  const auto draw = [&] {
    if (next == deck.size()) {
      deck.resize(space_rows);
      for (std::size_t i = 0; i < space_rows; ++i) deck[i] = i;
      for (std::size_t i = space_rows - 1; i > 0; --i) {
        std::swap(deck[i], deck[rng.below(i + 1)]);
      }
      next = 0;
    }
    return deck[next++];
  };
  std::unordered_map<std::string, int> seen;
  std::vector<std::vector<Request>> lists(kConnections);
  for (std::size_t j = 0; j < per_connection; ++j) {
    for (auto& list : lists) {
      Request r;
      do {
        r.rows.clear();
        for (std::size_t k = 0; k < rows_per_request; ++k) {
          r.rows.push_back(draw());
        }
        r.line = request_line(r.rows);
      } while (!seen.emplace(r.line, 0).second);
      list.push_back(std::move(r));
    }
  }
  return lists;
}

/// Pins `thread` to one CPU of this process's affinity mask, chosen by
/// `slot` (wrapping).
void pin(pthread_t thread, std::size_t slot) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  if (cpus.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[slot % cpus.size()], &one);
  pthread_setaffinity_np(thread, sizeof one, &one);
}

/// Handle time of each request line, as the traced handler wrapper last
/// measured it. Keys view the Rig's request lines; only values change.
struct HandleProbe {
  std::mutex mutex;
  std::unordered_map<std::string_view, double> handle_us;
};

/// Server, handler, clients and request lists of one serving run. The
/// server loop runs on its own thread from construction to destruction.
class Rig {
 public:
  Rig(std::vector<std::vector<Request>> requests, HandleProbe* probe)
      : requests_(std::move(requests)), probe_(probe) {
    registry_.load_file(kModelName, kModelPath,
                        engine::design_space_schema());
    const auto model = registry_.get(kModelName)->model;
    const dsml::data::Dataset& space = engine::design_space_dataset();
    for (auto& list : requests_) {
      for (Request& r : list) {
        r.expected = model->predict(space.select_rows(r.rows));
      }
    }
    if (probe_ != nullptr) {
      for (const auto& list : requests_) {
        for (const Request& r : list) probe_->handle_us[r.line] = 0.0;
      }
    }
    handler_ = std::make_unique<engine::ServeHandler>(registry_);
    net::RequestHandler handle = [this](std::string_view line) {
      return handler_->handle(line);
    };
    if (probe_ != nullptr) {
      handle = [this](std::string_view line) {
        trace::Span span("ServeHandler::handle", "engine");
        trace::Stopwatch timer;
        std::string response = handler_->handle(line);
        const double us = timer.seconds() * 1e6;
        std::lock_guard lock(probe_->mutex);
        if (const auto it = probe_->handle_us.find(line);
            it != probe_->handle_us.end()) {
          it->second = us;
        }
        return response;
      };
    }
    server_ = std::make_unique<net::Server>(net::ServerOptions{},
                                            std::move(handle));
    // The server listens from construction, so the clients connect (into
    // the backlog) before the loop thread exists: a failed connect throws
    // with no thread to join.
    for (std::size_t c = 0; c < kConnections; ++c) {
      clients_.push_back(
          std::make_unique<net::LineClient>("127.0.0.1", server_->port()));
    }
    server_thread_ = std::thread([this] {
      try {
        server_->run();
      } catch (const std::exception& e) {
        std::lock_guard lock(server_error_mutex_);
        server_error_ = e.what();
      }
    });
  }

  ~Rig() { stop(); }
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  /// Stops and joins the server loop; returns its error, if any.
  std::string stop() {
    if (server_thread_.joinable()) {
      clients_.clear();
      server_->request_stop();
      server_thread_.join();
    }
    std::lock_guard lock(server_error_mutex_);
    return server_error_;
  }

  /// Sends the first `count` requests of every connection's list, one
  /// client thread per connection. Latencies of ok requests land in
  /// `latency_us` (per connection, request order); a failed or refused
  /// request counts as failed and has no latency.
  ///
  /// Each call first moves the server loop to the next CPU and gives the
  /// clients the CPUs after it. A co-tenant slowing one CPU of a shared
  /// host then slows some passes, not the whole run, and the fastest passes
  /// (keep_fastest) still measure the program.
  void drive(std::size_t count, std::vector<std::vector<double>>& latency_us,
             Tally& tally) {
    const std::size_t server_slot = drives_++;
    pin(server_thread_.native_handle(), server_slot);
    std::vector<Tally> tallies(kConnections);
    latency_us.assign(kConnections, {});
    {
      std::vector<std::jthread> threads;  // joined on every exit path
      for (std::size_t c = 0; c < kConnections; ++c) {
        threads.emplace_back([&, c] {
          pin(pthread_self(), server_slot + 1 + c);
          send_list(c, count, latency_us[c], tallies[c]);
        });
      }
    }
    for (const Tally& t : tallies) {
      tally.attempted += t.attempted;
      tally.failed += t.failed;
    }
  }

  const std::vector<std::vector<Request>>& requests() const {
    return requests_;
  }
  engine::ModelRegistry& registry() { return registry_; }

 private:
  /// One client's closed loop over the first `count` requests of its list.
  void send_list(std::size_t c, std::size_t count,
                 std::vector<double>& latency_us, Tally& tally) {
    const std::vector<Request>& list = requests_[c];
    const std::size_t stop_at = std::min(count, list.size());
    for (std::size_t j = 0; j < stop_at; ++j) {
      if (!clients_[c]) {
        tally.fail(stop_at - j);
        return;
      }
      trace::Stopwatch timer;
      std::string response;
      try {
        response = clients_[c]->request(list[j].line);
      } catch (const std::exception&) {
        clients_[c].reset();  // the connection is gone
        tally.fail();
        continue;
      }
      const double us = timer.seconds() * 1e6;
      if (response_matches(response, list[j].expected)) {
        tally.ok();
        latency_us.push_back(us);
      } else {
        tally.fail();
      }
    }
  }

  engine::ModelRegistry registry_;
  std::vector<std::vector<Request>> requests_;
  HandleProbe* probe_ = nullptr;
  std::unique_ptr<engine::ServeHandler> handler_;
  std::unique_ptr<net::Server> server_;
  std::vector<std::unique_ptr<net::LineClient>> clients_;
  std::mutex server_error_mutex_;
  std::string server_error_;
  std::size_t drives_ = 0;
  std::thread server_thread_;
};

/// Requests per connection per pass: a pass is a fraction of a second, so a
/// run holds many, and has at least 1000 requests, so it has a p99.
std::size_t requests_per_connection(std::size_t rows_per_request) {
  return rows_per_request == 1 ? 1536 : 334;
}

}  // namespace

RunResult run_serve(const RunOptions& opt, std::size_t rows_per_request) {
  RunResult result;
  const std::size_t per_connection = requests_per_connection(rows_per_request);

  // Setup: load the model, draw and encode the requests, predict their
  // expected answers, start the server, connect and warm up.
  std::unique_ptr<Rig> rig;
  Tally warmup;
  std::vector<double> setups;
  for (int i = 0; i < (opt.trace ? 1 : 3); ++i) {
    if (rig) result.check(rig->stop().empty(), "server loop failed");
    rig.reset();
    trace::Stopwatch timer;
    rig = std::make_unique<Rig>(
        make_requests(opt.seed, rows_per_request, per_connection), nullptr);
    std::vector<std::vector<double>> ignored;
    rig->drive(kWarmupRequests, ignored, warmup);
    setups.push_back(timer.seconds());
  }
  result.check(warmup.failed == 0, "warm-up requests failed");

  // Per pass, only the latency summary is kept, so the benchmark's own
  // storage does not grow with the run and leak into peak_rss_mb.
  std::vector<LatencySummary> pass_latency;
  std::vector<std::uint64_t> pass_rows;
  const std::vector<double> walls =
      timed_passes(opt.trace ? opt.seconds / 2 : opt.seconds, [&] {
        std::vector<std::vector<double>> per_connection_us;
        Tally pass;
        rig->drive(per_connection, per_connection_us, pass);
        std::vector<double> us;
        for (const auto& c : per_connection_us) {
          us.insert(us.end(), c.begin(), c.end());
        }
        pass_latency.push_back(summarize(std::move(us)));
        pass_rows.push_back((pass.attempted - pass.failed) * rows_per_request);
        result.tally.attempted += pass.attempted;
        result.tally.failed += pass.failed;
      });
  result.check(rig->stop().empty(), "server loop failed");
  rig.reset();
  result.check(result.tally.failed == 0, "some responses were wrong or lost");
  const KeptPasses kept = keep_fastest(walls);

  if (!opt.trace) {
    std::uint64_t rows = 0;
    std::size_t requests = 0;
    std::vector<double> p50_us;
    std::vector<double> p99_us;
    for (const std::size_t i : kept.index) {
      rows += pass_rows[i];
      requests += pass_latency[i].samples;
      p50_us.push_back(pass_latency[i].p50);
      if (pass_latency[i].p99) p99_us.push_back(*pass_latency[i].p99);
    }
    auto& v = result.values;
    v["setup_s"] = median(setups);
    v["wall_s"] = kept.median_s;
    v["rows_per_s"] = static_cast<double>(rows) / kept.total_s;
    v["peak_rss_mb"] = peak_rss_mb();
    // Latency is reported per pass (every pass has >= 1000 requests) and
    // summarized as the median over the kept passes.
    result.extra.add("latency_p50_ms", median(p50_us) / 1e3, "ms");
    if (!p99_us.empty()) {
      result.extra.add("latency_p99_ms", median(p99_us) / 1e3, "ms");
    }
    result.extra.add("requests_per_s",
                     static_cast<double>(requests) / kept.total_s, "1/s");
    result.extra.add("passes", static_cast<double>(walls.size()), "count");
    result.extra.add("fail_pct", result.tally.fail_pct(), "%");
    return result;
  }

  // Traced run: a fresh server with a wrapped handler, passes until at
  // least 1000 requests have been handled, then replays of the parse and
  // predict steps on the same requests.
  dsml::metrics::reset_all();
  const double cpu_before = process_cpu_s();
  trace::start("");
  HandleProbe probe;
  std::vector<double> traced_walls;
  std::vector<double> handle_us;
  std::vector<double> wait_us;
  Rig traced(make_requests(opt.seed, rows_per_request, per_connection),
             &probe);
  {
    trace::Span root("serve", kRootCategory);
    while (handle_us.size() < 1000) {
      std::vector<std::vector<double>> per_connection_us;
      Tally pass;
      trace::Stopwatch timer;
      traced.drive(per_connection, per_connection_us, pass);
      traced_walls.push_back(timer.seconds());
      result.tally.attempted += pass.attempted;
      result.tally.failed += pass.failed;
      if (pass.failed != 0 || pass.attempted == 0) break;
      // Every request of the pass was answered, so latencies align with the
      // request lists; pair each with its handle time from this pass.
      std::lock_guard lock(probe.mutex);
      for (std::size_t c = 0; c < kConnections; ++c) {
        for (std::size_t j = 0; j < per_connection_us[c].size(); ++j) {
          const double handled =
              probe.handle_us.at(traced.requests()[c][j].line);
          handle_us.push_back(handled);
          wait_us.push_back(per_connection_us[c][j] - handled);
        }
      }
    }
    result.check(traced.stop().empty(), "traced server loop failed");
  }
  result.check(result.tally.failed == 0 && handle_us.size() >= 1000,
               "traced requests failed");

  // Replays of the request parse and of the session predict, one request
  // at a time.
  std::vector<const Request*> replayed;
  std::vector<dsml::data::Dataset> replay_rows;
  for (const auto& list : traced.requests()) {
    for (const Request& r : list) {
      replayed.push_back(&r);
      replay_rows.push_back(
          engine::design_space_dataset().select_rows(r.rows));
    }
  }
  std::vector<double> parse_us;
  std::vector<double> predict_us;
  {
    trace::Span root("serve.replay", kRootCategory);
    engine::InferenceSession session(traced.registry(), kModelName);
    for (std::size_t i = 0; i < replayed.size(); ++i) {
      {
        trace::Span span("json::Value::parse", "common");
        trace::Stopwatch timer;
        (void)dsml::json::Value::parse(replayed[i]->line);
        parse_us.push_back(timer.seconds() * 1e6);
      }
      trace::Span span("InferenceSession::predict_detailed", "engine");
      trace::Stopwatch timer;
      const engine::BatchOutcome outcome =
          session.predict_detailed(replay_rows[i]);
      predict_us.push_back(timer.seconds() * 1e6);
      result.check(outcome.ok() && outcome.values == replayed[i]->expected,
                   "replayed predict_detailed differs from direct predict");
    }
  }

  const auto count = [](const char* name) {
    return static_cast<double>(dsml::metrics::counter(name).value());
  };
  const LatencySummary handle = summarize(handle_us);
  const LatencySummary wait = summarize(wait_us);
  double handle_total_us = 0.0;
  for (const double us : handle_us) handle_total_us += us;
  double traced_total_s = 0.0;
  for (const double w : traced_walls) traced_total_s += w;
  auto& v = result.values;
  v["process.cpu_s"] = process_cpu_s() - cpu_before;
  v["json.parse_us_p50"] = summarize(parse_us).p50;
  v["engine.handle_us_p50"] = handle.p50;
  v["engine.handle_us_p99"] = handle.p99.value_or(0.0);
  v["engine.predict_us_p50"] = summarize(predict_us).p50;
  v["engine.handle_share"] = handle_total_us / (traced_total_s * 1e6);
  v["engine.session.coalesced"] = count("engine.session.coalesced");
  v["net.wait_us_p50"] = wait.p50;
  v["net.wait_us_p99"] = wait.p99.value_or(0.0);
  v["net.bytes_per_request"] =
      (count("net.bytes_read") + count("net.bytes_written")) /
      count("net.requests");
  v["net.shed"] = count("net.shed");
  v["net.io_errors"] = count("net.read_errors") + count("net.write_errors");
  finish_trace(result, keep_fastest(traced_walls).median_s, kept.median_s);
  return result;
}

}  // namespace perfbench
