// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//             [--commit ID]
//
// Workloads: sweep-mcf, dse-mcf, serve-wide, serve-narrow (README.md says
// why each exists). The report lists every metric by name with its unit;
// the last line is one JSON object {"correct", "attempted", "failed",
// "metrics"} holding the end-to-end metrics (untraced) or the per-layer
// metrics (--trace 1). Exit status: 0 when every correctness gate passed,
// 1 when one failed, 2 on a usage or runtime error (no result line).
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "common/thread_pool.hpp"
#include "linalg/backend.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

const std::vector<std::string> kWorkloads = {"sweep-mcf", "dse-mcf",
                                             "serve-wide", "serve-narrow"};

struct Args {
  RunOptions run;
  std::string commit = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args args;
  const auto need = [&](int& i) -> std::string {
    if (i + 1 >= argc) {
      throw std::invalid_argument(std::string(argv[i]) + " needs a value");
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--workload") {
      args.run.workload = need(i);
    } else if (flag == "--seed") {
      args.run.seed = std::stoull(need(i));
    } else if (flag == "--seconds") {
      args.run.seconds = std::stod(need(i));
    } else if (flag == "--trace") {
      const std::string t = need(i);
      if (t != "0" && t != "1") throw std::invalid_argument("--trace is 0|1");
      args.run.trace = t == "1";
    } else if (flag == "--commit") {
      args.commit = need(i);
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  bool known = false;
  for (const std::string& w : kWorkloads) known = known || w == args.run.workload;
  if (!known) {
    throw std::invalid_argument("--workload must be one of sweep-mcf, "
                                "dse-mcf, serve-wide, serve-narrow");
  }
  if (!(args.run.seconds > 0.0)) {
    throw std::invalid_argument("--seconds must be positive");
  }
  return args;
}

RunResult run(const RunOptions& options) {
  if (options.workload == "sweep-mcf") return run_sweep(options);
  if (options.workload == "dse-mcf") return run_dse(options);
  if (options.workload == "serve-wide") return run_serve(options, 64);
  return run_serve(options, 1);
}

void print_metric(const Metric& m, const char* note) {
  std::printf("  %-28s %-22.10g %-8s%s\n", m.name.c_str(), m.value,
              m.unit.c_str(), note);
}

int bench_main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const RunOptions& options = args.run;

  // The pool is sized once, on first use: nproc threads for the sweep and
  // DSE workloads, one for serving (one server thread plus three client
  // threads then fill the machine).
  const bool serving = options.workload.rfind("serve-", 0) == 0;
  const std::size_t threads = serving ? 1 : nproc();
  setenv("DSML_THREADS", std::to_string(threads).c_str(), 1);

  Context context;
  context.nproc = nproc();
  context.pool_threads = dsml::ThreadPool::global().size();
  context.linalg_backend =
      dsml::linalg::to_string(dsml::linalg::active_backend());
  context.simd_variant = dsml::linalg::simd_variant();
  context.build_type = PERFBENCH_BUILD_TYPE;
  context.compiler = "gcc " __VERSION__;
  context.commit = args.commit;

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::printf("context %s\n", context.json().c_str());
  std::fflush(stdout);

  RunResult result = run(options);

  const std::vector<MetricSpec>& catalog =
      options.trace ? kPerLayer : kEndToEnd;
  MetricSet metrics;
  for (const MetricSpec& spec : catalog) {
    const auto it = result.values.find(spec.name);
    double value = 0.0;
    if (it != result.values.end()) {
      value = it->second;
    } else if (!options.trace) {
      result.errors.push_back(std::string("no value for ") + spec.name);
    }
    if (!options.trace && !(value > 0.0)) {
      result.errors.push_back(std::string(spec.name) + " is not positive");
    }
    metrics.add(spec.name, value, spec.unit);
  }
  for (const auto& [name, value] : result.values) {
    if (metrics.find(name) == nullptr) {
      result.errors.push_back("value " + name + " is not in the catalogue");
    }
  }

  std::printf("%s metrics:\n", options.trace ? "per-layer" : "end-to-end");
  for (const Metric& m : metrics.items()) print_metric(m, "");
  for (const Metric& m : result.extra.items()) {
    print_metric(m, "  (report only)");
  }
  std::printf("  attempted %llu, failed %llu (%.4g %%)\n",
              static_cast<unsigned long long>(result.tally.attempted),
              static_cast<unsigned long long>(result.tally.failed),
              result.tally.fail_pct());
  for (const std::string& e : result.errors) {
    std::printf("CHECK FAILED: %s\n", e.c_str());
  }
  const bool correct = result.errors.empty() && result.tally.attempted > 0;
  std::printf("%s\n", result_line(correct, result.tally.attempted,
                                  result.tally.failed, metrics)
                          .c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return bench_main(argc, argv);
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
