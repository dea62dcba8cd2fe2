// Fleet coordinator plumbing: worker endpoints and the deadlines every
// coordinator-side connection runs under. The sharded sweep itself — ping,
// scatter, gather, evict, retry — is fleet::FleetEvaluator (evaluator.hpp).
#pragma once

#include <cstdint>
#include <string>

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

}  // namespace dsml::fleet
