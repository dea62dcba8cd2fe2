#include "fleet/coordinator.hpp"

#include "common/json.hpp"
#include "common/strings.hpp"
#include "fleet/protocol.hpp"
#include "net/client.hpp"

namespace dsml::fleet {

std::string Endpoint::label() const {
  return host + ":" + std::to_string(port);
}

Endpoint parse_endpoint(const std::string& spec) {
  const std::size_t colon = spec.rfind(':');
  DSML_REQUIRE(colon != std::string::npos && colon > 0 &&
                   colon + 1 < spec.size(),
               "fleet: endpoint '" + spec + "' is not host:port");
  Endpoint ep;
  ep.host = spec.substr(0, colon);
  std::uint64_t port = 0;
  try {
    port = strings::parse_u64(spec.substr(colon + 1));
  } catch (const IoError& e) {
    throw InvalidArgument("fleet: endpoint '" + spec + "': " + e.what());
  }
  DSML_REQUIRE(port > 0 && port <= 65535,
               "fleet: endpoint '" + spec + "' port out of range");
  ep.port = static_cast<std::uint16_t>(port);
  return ep;
}

PushResult push_model_snapshot(const std::string& name,
                               const std::string& snapshot,
                               const std::vector<Endpoint>& workers,
                               const CoordinatorOptions& options) {
  DSML_REQUIRE(!workers.empty(), "fleet: no workers given");
  DSML_REQUIRE(!snapshot.empty(), "fleet: empty model snapshot");
  PushResult result;
  for (const Endpoint& ep : workers) {
    try {
      net::LineClient client(ep.host, ep.port,
                             net::ClientOptions{options.connect_timeout_ms,
                                                options.request_timeout_ms});
      const json::Value response = parse_response(
          client.request(encode_load_model(name, snapshot)), "model_loaded");
      result.outcomes.push_back(PushOutcome{
          ep.label(),
          static_cast<std::uint64_t>(response.at("version").as_number())});
    } catch (const std::exception& e) {
      result.failures.push_back(
          FailureRecord{ep.label(), error_kind(e), e.what()});
    }
  }
  return result;
}

}  // namespace dsml::fleet
