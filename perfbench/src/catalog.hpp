// The metric catalogue: every name a run reports, with its unit. The
// untraced run of every workload reports all of kEndToEnd; the traced run
// reports all of kPerLayer, 0 for a layer the workload does not cross.
// BENCHMARK.json lists the same names (perfbench_tests checks that).
#pragma once

#include <vector>

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

extern const std::vector<MetricSpec> kEndToEnd;
extern const std::vector<MetricSpec> kPerLayer;

/// The layers whose self time the traced run reports as trace.self_s.<layer>.
extern const std::vector<const char*> kLayers;

}  // namespace perfbench
