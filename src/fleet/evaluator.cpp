#include "fleet/evaluator.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <utility>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/json.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "fleet/hash_ring.hpp"
#include "fleet/protocol.hpp"
#include "net/client.hpp"
#include "sim/core.hpp"

namespace dsml::fleet {

namespace {

struct CoordinatorMetrics {
  metrics::Counter& shards = metrics::counter("fleet.coordinator.shards");
  metrics::Counter& retries = metrics::counter("fleet.coordinator.retries");
  metrics::Counter& evictions =
      metrics::counter("fleet.coordinator.evictions");
};

CoordinatorMetrics& coordinator_metrics() {
  static CoordinatorMetrics m;
  return m;
}

/// One scattered request whose response is still owed.
struct InFlight {
  std::string label;
  std::vector<std::size_t> indices;
  std::unique_ptr<net::LineClient> client;
};

}  // namespace

FleetEvaluator::FleetEvaluator(std::string app, std::vector<Endpoint> workers,
                               CoordinatorOptions options)
    : app_(std::move(app)),
      workers_(std::move(workers)),
      options_(std::move(options)) {
  DSML_REQUIRE(!workers_.empty(), "fleet: no workers given");
}

dse::SweepShard FleetEvaluator::evaluate(
    const std::vector<std::size_t>& indices) {
  trace::Span gather_span([&] { return "fleet.gather " + app_; }, "fleet");
  DSML_REQUIRE(options_.max_rounds > 0, "fleet: max_rounds must be positive");
  DSML_REQUIRE(!indices.empty(), "fleet: empty index set");
  for (std::size_t i = 0; i < indices.size(); ++i) {
    DSML_REQUIRE(indices[i] < sim::kDesignSpaceSize,
                 "fleet: index outside the design space");
    DSML_REQUIRE(i == 0 || indices[i - 1] < indices[i],
                 "fleet: indices must be strictly ascending");
  }

  // A call's failures and evictions are published only when it returns a
  // merged answer; a call that throws reports just its own error.
  rounds_ = 0;
  std::vector<dse::SweepShard> shards;
  std::vector<FailureRecord> failures;
  std::set<std::string> evicted;
  std::set<std::string> contributed;
  const auto record_failure = [&](const std::string& label,
                                  const std::exception& e) {
    failures.push_back(FailureRecord{label, error_kind(e), e.what()});
    if (evicted.insert(label).second) coordinator_metrics().evictions.add();
  };

  // `done` spans the whole design space so the hash-ring owner of a
  // configuration is independent of which subset a campaign asks for — the
  // same index always lands on the same worker.
  std::vector<std::uint8_t> done(sim::kDesignSpaceSize, 1);
  for (const std::size_t idx : indices) done[idx] = 0;
  std::size_t missing = indices.size();

  for (std::size_t round = 1; round <= options_.max_rounds && missing > 0;
       ++round) {
    rounds_ = round;
    if (round > 1) coordinator_metrics().retries.add();

    // Health phase: every endpoint is re-pinged every round, so a worker
    // the supervisor respawned since the last round rejoins the ring, and
    // one that stayed dead costs one bounded connect/recv timeout.
    std::vector<const Endpoint*> healthy;
    for (const Endpoint& ep : workers_) {
      try {
        net::LineClient ping(ep.host, ep.port,
                             net::ClientOptions{options_.connect_timeout_ms,
                                                options_.ping_timeout_ms});
        parse_response(ping.request(encode_ping()), "pong");
        healthy.push_back(&ep);
      } catch (const std::exception& e) {
        record_failure(ep.label(), e);
      }
    }
    if (healthy.empty()) continue;  // maybe a respawn lands before next round

    HashRing ring(options_.ring_replicas);
    for (const Endpoint* ep : healthy) ring.add(ep->label());

    // Assign only the configurations still missing: consistent hashing
    // means survivors of an eviction keep the shards they already returned.
    std::map<std::string, std::vector<std::size_t>> assignment;
    for (const std::size_t idx : indices) {
      if (!done[idx]) assignment[ring.owner(idx)].push_back(idx);
    }

    // Scatter: send every request before reading any response, so workers
    // simulate their shards concurrently while we wait on one socket.
    std::vector<InFlight> inflight;
    for (const Endpoint* ep : healthy) {
      auto it = assignment.find(ep->label());
      if (it == assignment.end()) continue;
      try {
        DSML_FAIL("fleet.coordinator.scatter");
        auto client = std::make_unique<net::LineClient>(
            ep->host, ep->port,
            net::ClientOptions{options_.connect_timeout_ms,
                               options_.request_timeout_ms});
        client->send_line(encode_sweep_request(
            SweepRequest{app_, options_.sweep, it->second}));
        inflight.push_back(
            InFlight{ep->label(), it->second, std::move(client)});
      } catch (const std::exception& e) {
        record_failure(ep->label(), e);
      }
    }

    // Gather: a worker that died mid-shard surfaces here as EOF (kill -9),
    // a timeout (wedged), or an ok:false response; its indices simply stay
    // unassigned for the next round.
    for (InFlight& flight : inflight) {
      try {
        DSML_FAIL("fleet.coordinator.gather");
        const json::Value response =
            parse_response(flight.client->recv_line(), "shard");
        ShardResponse shard = parse_shard_response(response);
        if (shard.cycles.size() != flight.indices.size()) {
          throw IoError("fleet: shard answered " +
                        std::to_string(shard.cycles.size()) +
                        " cycles for " +
                        std::to_string(flight.indices.size()) + " indices");
        }
        for (const std::size_t idx : flight.indices) done[idx] = 1;
        missing -= flight.indices.size();
        shards.push_back(dse::SweepShard{
            std::move(flight.indices), std::move(shard.cycles),
            shard.simpoint_count, shard.simulated_instructions});
        coordinator_metrics().shards.add();
        contributed.insert(flight.label);
      } catch (const std::exception& e) {
        record_failure(flight.label, e);
      }
    }
  }

  workers_used_ = contributed.size();
  if (missing > 0) {
    throw StateError(
        "fleet: " + std::to_string(missing) + " of " +
        std::to_string(indices.size()) +
        " configurations unassigned after " + std::to_string(rounds_) +
        " round(s) across " + std::to_string(workers_.size()) +
        " worker(s); " + std::to_string(failures.size()) +
        " failure(s) recorded");
  }
  dse::SweepShard merged = dse::merge_sweep_shards(indices, shards);
  for (FailureRecord& f : failures) {
    // Every failure evicts its worker; list each worker once, first first.
    if (std::find(evicted_.begin(), evicted_.end(), f.name) == evicted_.end()) {
      evicted_.push_back(f.name);
    }
    pending_.push_back(std::move(f));
  }
  return merged;
}

std::vector<FailureRecord> FleetEvaluator::drain_failures() {
  return std::exchange(pending_, {});
}

}  // namespace dsml::fleet
