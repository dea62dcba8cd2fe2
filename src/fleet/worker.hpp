// Fleet worker: one process's serving + shard-simulation endpoint.
//
// A Worker wraps a net::Server whose handler multiplexes two protocols on
// one port: a line whose top-level JSON object has a "fleet" key
// (protocol.hpp) is answered here — health pings and sweep shard
// assignments — and every other line is delegated verbatim to the engine's
// ServeHandler, so a worker answers ordinary predict traffic with
// byte-identical responses to `dsml serve --listen`. Models enter a worker
// only through the registry it was built with (`dsml worker --models`);
// the fleet protocol cannot load or replace one.
//
// Failure containment mirrors the serve loop: a fleet request that throws,
// or names any other operation, is answered with
// {"ok":false,...,"error_type":<taxonomy>} and the loop survives — the only
// way a worker stops is request_stop() or the process dying (which the
// coordinator observes as EOF and the supervisor as a waitpid).
//
// Failpoints: `fleet.worker.sweep` fails a shard request (the coordinator
// must retry elsewhere); `fleet.worker.stall` delays a shard answer by
// `stall_ms` — CI uses it to hold a shard in flight so a kill -9 lands
// mid-sweep deterministically.
#pragma once

#include <cstdint>
#include <mutex>

#include "common/json.hpp"
#include "engine/registry.hpp"
#include "engine/serve.hpp"
#include "net/server.hpp"

namespace dsml::fleet {

struct WorkerOptions {
  net::ServerOptions server;     ///< bind/port/adopted_fd/idle timeout/...
  engine::ServeOptions serve;    ///< delegated serve-protocol tuning

  /// How long `fleet.worker.stall` delays a shard answer when it fires
  /// (default one poll-loop-friendly 100ms; CI raises it to seconds).
  std::uint32_t stall_ms = 100;
};

struct WorkerSummary {
  std::uint64_t pings = 0;   ///< health checks answered
  std::uint64_t shards = 0;  ///< sweep shards simulated
  std::uint64_t errors = 0;  ///< fleet requests answered ok:false
  net::ServerSummary server;
  engine::ServeSummary serve;
};

class Worker {
 public:
  /// Binds (or adopts) the listen socket immediately; port() is valid
  /// before run(). `registry` must outlive the worker.
  Worker(engine::ModelRegistry& registry, WorkerOptions options);

  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  std::uint16_t port() const { return server_.port(); }

  /// Runs the event loop until request_stop().
  void run();

  /// Stops run() from any thread or signal handler.
  void request_stop() noexcept;

  WorkerSummary summary() const;

 private:
  std::string handle(std::string_view line);
  std::string handle_fleet(const json::Value& request);

  engine::ModelRegistry& registry_;
  engine::ServeHandler serve_handler_;
  WorkerOptions options_;
  net::Server server_;

  mutable std::mutex mutex_;
  WorkerSummary summary_;
};

}  // namespace dsml::fleet
