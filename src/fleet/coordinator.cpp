#include "fleet/coordinator.hpp"

#include "common/error.hpp"
#include "common/strings.hpp"

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

}  // namespace dsml::fleet
