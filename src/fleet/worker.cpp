#include "fleet/worker.hpp"

#include <chrono>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/json.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "fleet/protocol.hpp"

namespace dsml::fleet {

namespace {

struct WorkerMetrics {
  metrics::Counter& pings = metrics::counter("fleet.worker.pings");
  metrics::Counter& shards = metrics::counter("fleet.worker.shards");
  metrics::Counter& errors = metrics::counter("fleet.worker.errors");
};

WorkerMetrics& worker_metrics() {
  static WorkerMetrics m;
  return m;
}

}  // namespace

Worker::Worker(engine::ModelRegistry& registry, WorkerOptions options)
    : registry_(registry),
      serve_handler_(registry, options.serve),
      options_(std::move(options)),
      server_(options_.server,
              [this](std::string_view line) { return handle(line); }) {}

void Worker::run() { server_.run(); }

void Worker::request_stop() noexcept { server_.request_stop(); }

WorkerSummary Worker::summary() const {
  std::lock_guard<std::mutex> lock(mutex_);
  WorkerSummary out = summary_;
  out.server = server_.summary();
  out.serve = serve_handler_.summary();
  return out;
}

std::string Worker::handle(std::string_view line) {
  // Route on the parsed document, not on its text: a serve request may name
  // a model "fleet". A line that does not parse goes to the serve handler,
  // which answers it with the same error `dsml serve` would.
  json::Value request;
  try {
    request = json::Value::parse(line);
  } catch (const IoError&) {
    return serve_handler_.handle(line);
  }
  if (!request.contains("fleet")) return serve_handler_.handle(line);
  return handle_fleet(request);
}

std::string Worker::handle_fleet(const json::Value& request) {
  json::Writer w(true);
  try {
    const std::string op = fleet_op(request);
    if (op == "ping") {
      worker_metrics().pings.add();
      {
        std::lock_guard<std::mutex> lock(mutex_);
        ++summary_.pings;
      }
      w.begin_object().field("ok", true).field("fleet", "pong");
      w.key("models").begin_array();
      for (const std::string& name : registry_.names()) w.value(name);
      w.end_array().end_object();
    } else if (op == "sweep") {
      DSML_FAIL("fleet.worker.sweep");
      if (DSML_FAIL_POISON("fleet.worker.stall")) {
        // Hold the shard in flight: CI kills this process during the stall
        // so the coordinator deterministically sees a mid-sweep death.
        std::this_thread::sleep_for(
            std::chrono::milliseconds(options_.stall_ms));
      }
      const SweepRequest sweep = parse_sweep_request(request);
      trace::Span span([&] { return "fleet.shard " + sweep.app; }, "fleet");
      const dse::SweepShard shard =
          dse::run_sweep_shard(sweep.app, sweep.options, sweep.indices);
      worker_metrics().shards.add();
      {
        std::lock_guard<std::mutex> lock(mutex_);
        ++summary_.shards;
      }
      w.begin_object().field("ok", true).field("fleet", "shard");
      w.key("cycles").begin_array();
      for (const double c : shard.cycles) w.value(c);
      w.end_array();
      w.field("simpoints", static_cast<std::uint64_t>(shard.simpoint_count));
      w.field("instructions",
              static_cast<std::uint64_t>(shard.simulated_instructions));
      w.end_object();
    } else {
      throw InvalidArgument("fleet: unknown operation '" + op + "'");
    }
  } catch (const std::exception& e) {
    worker_metrics().errors.add();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++summary_.errors;
    }
    json::Writer err(true);
    err.begin_object().field("ok", false).field("fleet", "error");
    err.field("error_type", error_kind(e)).field("error", e.what());
    err.end_object();
    return err.str();  // Writer::str() is already newline-terminated
  }
  return w.str();
}

}  // namespace dsml::fleet
