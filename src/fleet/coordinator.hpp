// Fleet coordinator plumbing: worker endpoints, the deadlines every
// coordinator-side connection runs under, and model-snapshot pushes. The
// sharded sweep itself — ping, scatter, gather, evict, retry — is
// fleet::FleetEvaluator (evaluator.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "dse/sweep.hpp"

namespace dsml::fleet {

struct Endpoint {
  std::string host;
  std::uint16_t port = 0;

  /// "host:port" — the node name used on the hash ring and in records.
  std::string label() const;
};

/// Parses "host:port". Throws InvalidArgument on a malformed spec.
Endpoint parse_endpoint(const std::string& spec);

struct CoordinatorOptions {
  std::uint32_t connect_timeout_ms = 2000;   ///< per connection attempt
  std::uint32_t ping_timeout_ms = 2000;      ///< health-check I/O deadline
  std::uint32_t request_timeout_ms = 120000; ///< shard I/O deadline
  std::size_t max_rounds = 3;                ///< assignment attempts
  std::size_t ring_replicas = 64;            ///< hash-ring virtual nodes
  dse::SweepOptions sweep;
};

/// One worker's outcome of a model push.
struct PushOutcome {
  std::string endpoint;
  std::uint64_t version = 0;  ///< 0 when the push failed
};

struct PushResult {
  std::vector<PushOutcome> outcomes;
  std::vector<FailureRecord> failures;
};

/// Ships a registry snapshot (ModelRegistry::serialize_entry) to every
/// worker; each applies it via the atomic registry swap. Per-worker
/// failures are recorded, not fatal — the caller decides whether a partial
/// rollout is acceptable.
PushResult push_model_snapshot(const std::string& name,
                               const std::string& snapshot,
                               const std::vector<Endpoint>& workers,
                               const CoordinatorOptions& options);

}  // namespace dsml::fleet
