#include "fleet/protocol.hpp"

#include "common/error.hpp"

namespace dsml::fleet {

namespace {

std::size_t number_as_size(const json::Value& v, const char* what) {
  const double d = v.as_number();
  // Range first: casting a double outside [0, 2^64) to uint64_t is
  // undefined behaviour, and the wire may carry any JSON number.
  constexpr double kTwoTo64 = 18446744073709551616.0;
  if (!(d >= 0 && d < kTwoTo64) ||
      d != static_cast<double>(static_cast<std::uint64_t>(d))) {
    throw IoError(std::string("fleet: field '") + what +
                  "' is not a non-negative integer");
  }
  return static_cast<std::size_t>(d);
}

/// Re-raises a remote failure as the taxonomy type it was on the worker, so
/// coordinator-side handling (error_kind, FailureRecords, retry policy) is
/// identical for local and remote errors.
[[noreturn]] void throw_taxonomy(const std::string& type,
                                 const std::string& message) {
  if (type == "InvalidArgument") throw InvalidArgument(message);
  if (type == "StateError") throw StateError(message);
  if (type == "NumericalError") throw NumericalError(message);
  if (type == "TrainingError") throw TrainingError("", "", message);
  throw IoError(message);
}

}  // namespace

/// Writer::str() newline-terminates; requests travel through
/// LineClient::send_line, which frames the line itself.
std::string as_request_line(const json::Writer& w) {
  std::string line = w.str();
  line.pop_back();
  return line;
}

std::string encode_ping() {
  json::Writer w(true);
  w.begin_object().field("fleet", "ping").end_object();
  return as_request_line(w);
}

std::string encode_sweep_request(const SweepRequest& request) {
  json::Writer w(true);
  w.begin_object();
  w.field("fleet", "sweep");
  w.field("app", request.app);
  w.key("options").begin_object();
  w.field("full_trace_instructions",
          static_cast<std::uint64_t>(request.options.full_trace_instructions));
  w.field("interval_instructions",
          static_cast<std::uint64_t>(request.options.interval_instructions));
  w.field("max_clusters",
          static_cast<std::uint64_t>(request.options.max_clusters));
  w.field("trace_seed", request.options.trace_seed);
  // cache_dir is deliberately not shipped: it names a path on the
  // *coordinator's* filesystem. Workers resolve their own cache directory.
  w.field("use_cache", request.options.use_cache);
  w.end_object();
  w.key("indices").begin_array();
  for (const std::size_t idx : request.indices) {
    w.value(static_cast<std::uint64_t>(idx));
  }
  w.end_array();
  w.end_object();
  return as_request_line(w);
}

std::string fleet_op(const json::Value& request) {
  if (!request.contains("fleet")) return "";
  return request.at("fleet").as_string();
}

SweepRequest parse_sweep_request(const json::Value& request) {
  SweepRequest out;
  out.app = request.at("app").as_string();
  const json::Value& options = request.at("options");
  out.options.full_trace_instructions = number_as_size(
      options.at("full_trace_instructions"), "full_trace_instructions");
  out.options.interval_instructions = number_as_size(
      options.at("interval_instructions"), "interval_instructions");
  out.options.max_clusters =
      number_as_size(options.at("max_clusters"), "max_clusters");
  out.options.trace_seed = number_as_size(options.at("trace_seed"),
                                          "trace_seed");
  out.options.use_cache = options.at("use_cache").as_bool();
  const std::vector<json::Value>& indices = request.at("indices").items();
  out.indices.reserve(indices.size());
  for (const json::Value& v : indices) {
    out.indices.push_back(number_as_size(v, "indices"));
  }
  return out;
}

json::Value parse_response(std::string_view line, std::string_view expect_op) {
  const json::Value response = json::Value::parse(line);
  if (!response.at("ok").as_bool()) {
    const std::string type = response.contains("error_type")
                                 ? response.at("error_type").as_string()
                                 : "IoError";
    const std::string message = response.contains("error")
                                    ? response.at("error").as_string()
                                    : "unspecified remote error";
    throw_taxonomy(type, message);
  }
  const std::string op = fleet_op(response);
  if (op != expect_op) {
    throw IoError("fleet: expected a '" + std::string(expect_op) +
                  "' response, got '" + op + "'");
  }
  return response;
}

ShardResponse parse_shard_response(const json::Value& response) {
  ShardResponse out;
  const std::vector<json::Value>& cycles = response.at("cycles").items();
  out.cycles.reserve(cycles.size());
  for (const json::Value& v : cycles) out.cycles.push_back(v.as_number());
  out.simpoint_count =
      number_as_size(response.at("simpoints"), "simpoints");
  out.simulated_instructions =
      number_as_size(response.at("instructions"), "instructions");
  return out;
}

}  // namespace dsml::fleet
