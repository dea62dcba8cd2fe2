// Fleet wire protocol: the coordinator↔worker request/response vocabulary.
//
// Fleet messages ride the same newline-delimited JSON transport as the
// serve protocol — one compact JSON document per line — and are
// distinguished by a "fleet" key naming the operation, so a worker can
// multiplex fleet control traffic and ordinary serve requests on one port:
//
//   → {"fleet":"ping"}
//   ← {"ok":true,"fleet":"pong","models":["gcc"]}
//
//   → {"fleet":"sweep","app":"gcc","indices":[0,5,...],"options":{...}}
//   ← {"ok":true,"fleet":"shard","cycles":[...],"simpoints":4,
//      "instructions":32768}
//
// Failures, an unknown operation included, answer {"ok":false,"fleet":
// "error","error_type":<taxonomy>,"error":<message>} so the coordinator can
// fold them straight into FailureRecords.
//
// Encode/parse for *both* directions lives here so the coordinator, the
// worker, and the tests speak from one definition; a field renamed in only
// one place becomes a unit-test failure, not a hung fleet.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"
#include "dse/sweep.hpp"

namespace dsml::fleet {

/// A sweep shard assignment: which app, under which options, which indices.
struct SweepRequest {
  std::string app;
  dse::SweepOptions options;
  std::vector<std::size_t> indices;
};

/// A worker's answer to a sweep request; cycles align with the request's
/// index order.
struct ShardResponse {
  std::vector<double> cycles;
  std::size_t simpoint_count = 0;
  std::size_t simulated_instructions = 0;
};

std::string encode_ping();
std::string encode_sweep_request(const SweepRequest& request);

/// The "fleet" operation name of a parsed request ("" when absent).
std::string fleet_op(const json::Value& request);

/// Decodes a {"fleet":"sweep",...} document. Throws IoError on missing or
/// ill-typed fields.
SweepRequest parse_sweep_request(const json::Value& request);

/// Decodes a worker response line. ok:false responses throw the error back
/// as the taxonomy type named by "error_type" — the coordinator handles a
/// remote failure exactly like a local one. Requires the response's "fleet"
/// field to equal `expect_op`.
json::Value parse_response(std::string_view line, std::string_view expect_op);

/// Decodes the payload of an already-validated {"fleet":"shard"} response.
ShardResponse parse_shard_response(const json::Value& response);

}  // namespace dsml::fleet
