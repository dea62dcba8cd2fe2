// sweep-mcf: the uncached full 4608-configuration sweep of mcf at reduced
// fidelity, through dse::run_design_space_sweep on an nproc-thread pool.
// Simulated caches start cold for every configuration (that is the model).
//
// The traced pass drives the sweep's stages itself (generate_trace ->
// choose_simpoints -> extract_intervals -> parallel_for(sim::simulate)) so
// each layer gets its own span and the per-configuration SimStats become
// visible; its cycle table must equal the untraced table bit for bit.
#include <cstdio>

#include "common/metrics.hpp"
#include "common/thread_pool.hpp"
#include "common/trace.hpp"
#include "dse/sweep.hpp"
#include "sim/core.hpp"
#include "workload/generator.hpp"
#include "workload/profiles.hpp"
#include "workload/simpoint.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace dse = dsml::dse;
namespace sim = dsml::sim;
namespace trace = dsml::trace;
namespace workload = dsml::workload;

constexpr const char* kApp = "mcf";

/// The traced replay's SimStats means at the default seed (exact doubles,
/// summed in configuration order).
struct StatMeans {
  double ipc = 0.0;
  double l1d_miss = 0.0;
  double l2_miss = 0.0;
  double dtlb_miss = 0.0;
  double mispredict = 0.0;
  bool operator==(const StatMeans&) const = default;
};
constexpr StatMeans kPinnedMeans{0.038723096025773708, 0.80831831339785898,
                                  0.72839914464739852, 0.29706701622152853,
                                  0.2671079779917383};

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string describe(const CycleDigest& d) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", d.sum);
  return std::string("sum ") + buf + " fnv " + hex(d.fnv);
}

/// The traced replay of one sweep; fills the workload.*, sim.* and pool.*
/// values and returns the cycle table.
std::vector<double> traced_sweep(const dse::SweepOptions& options,
                                 RunResult& result, StatMeans& means) {
  trace::Span root("sweep-mcf", kRootCategory);
  const workload::AppProfile profile = workload::spec_profile(kApp);

  trace::Stopwatch synth_timer;
  sim::Trace full;
  {
    trace::Span span("workload::generate_trace", "workload");
    full = workload::generate_trace(profile, options.full_trace_instructions,
                                    options.trace_seed);
  }
  const double synth_s = synth_timer.seconds();

  trace::Stopwatch simpoint_timer;
  sim::Trace reduced;
  {
    trace::Span span("workload::choose_simpoints", "workload");
    const workload::SimPoints points = workload::choose_simpoints(
        full, options.interval_instructions, options.max_clusters);
    reduced = workload::extract_intervals(full, points);
  }
  const double simpoint_s = simpoint_timer.seconds();

  std::vector<sim::ProcessorConfig> space;
  {
    trace::Span span("sim::enumerate_design_space", "sim");
    space = sim::enumerate_design_space();
  }
  std::vector<sim::SimStats> stats(space.size());
  std::vector<double> config_s(space.size(), 0.0);
  trace::Stopwatch parallel_timer;
  {
    trace::Span span("parallel_for", "common");
    dsml::parallel_for(0, space.size(), [&](std::size_t i) {
      trace::Span sim_span("sim::simulate", "sim");
      trace::Stopwatch timer;
      stats[i] = sim::simulate(space[i], reduced).stats;
      config_s[i] = timer.seconds();
    });
  }
  const double parallel_s = parallel_timer.seconds();

  std::vector<double> cycles;
  double busy_s = 0.0;
  for (std::size_t i = 0; i < space.size(); ++i) {
    cycles.push_back(static_cast<double>(stats[i].cycles));
    busy_s += config_s[i];
    means.ipc += stats[i].ipc;
    means.l1d_miss += stats[i].l1d_miss_rate;
    means.l2_miss += stats[i].l2_miss_rate;
    means.dtlb_miss += stats[i].dtlb_miss_rate;
    means.mispredict += stats[i].branch_mispredict_rate;
  }
  const auto n = static_cast<double>(space.size());
  means.ipc /= n;
  means.l1d_miss /= n;
  means.l2_miss /= n;
  means.dtlb_miss /= n;
  means.mispredict /= n;

  auto& v = result.values;
  v["workload.synth_s"] = synth_s;
  v["workload.simpoint_s"] = simpoint_s;
  v["workload.reduced_instr"] = static_cast<double>(reduced.size());
  v["sim.busy_s"] = busy_s;
  v["sim.ns_per_instr"] =
      busy_s * 1e9 / (n * static_cast<double>(reduced.size()));
  const LatencySummary per_config = summarize(config_s);
  v["sim.config_ms_p50"] = per_config.p50 * 1e3;
  v["sim.config_ms_p99"] = per_config.p99.value_or(0.0) * 1e3;
  v["sim.cycles_checksum"] = digest(cycles).sum;
  v["sim.ipc_mean"] = means.ipc;
  v["sim.l1d_miss_rate_mean"] = means.l1d_miss;
  v["sim.l2_miss_rate_mean"] = means.l2_miss;
  v["sim.dtlb_miss_rate_mean"] = means.dtlb_miss;
  v["sim.mispredict_rate_mean"] = means.mispredict;
  v["pool.utilization"] =
      busy_s /
      (parallel_s * static_cast<double>(dsml::ThreadPool::global().size()));
  return cycles;
}

}  // namespace

dse::SweepOptions mcf_sweep_options(std::uint64_t trace_seed) {
  dse::SweepOptions options;
  options.full_trace_instructions = 105'000;
  options.interval_instructions = 15'000;
  options.max_clusters = 1;
  options.trace_seed = trace_seed;
  options.use_cache = false;
  return options;
}

const CycleDigest kPinnedMcfTable{1797868800.0, 0x05a61bc5d2a4b2eaULL};

RunResult run_sweep(const RunOptions& opt) {
  RunResult result;
  const dse::SweepOptions options = mcf_sweep_options(opt.seed);

  // Setup: enumerate the space and warm the pool, the allocator and the
  // trace front half on a 768-configuration shard.
  std::vector<std::size_t> warm;
  for (std::size_t i = 0; i < sim::kDesignSpaceSize; i += 6) warm.push_back(i);
  const double setup_s = median_setup(3, [&] {
    (void)sim::enumerate_design_space();
    (void)dse::run_sweep_shard(kApp, options, warm);
  });

  std::vector<double> reference;
  std::size_t instructions = 0;
  const std::vector<double> walls =
      timed_passes(opt.trace ? opt.seconds / 2 : opt.seconds, [&] {
        const dse::SweepResult sweep =
            dse::run_design_space_sweep(kApp, options);
        if (reference.empty()) {
          reference = sweep.cycles;
          instructions = sweep.simulated_instructions;
        } else {
          result.check(sweep.cycles == reference,
                       "sweep tables differ between passes");
        }
        result.tally.ok(sweep.cycles.size());
      });
  const CycleDigest table = digest(reference);
  if (opt.seed == kDefaultSeed) {
    result.check(table == kPinnedMcfTable,
                 "sweep table " + describe(table) + " != pinned " +
                     describe(kPinnedMcfTable));
  }

  if (!opt.trace) {
    const KeptPasses kept = keep_fastest(walls);
    const double wall_s = kept.median_s;
    auto& v = result.values;
    v["setup_s"] = setup_s;
    v["wall_s"] = wall_s;
    v["rows_per_s"] =
        static_cast<double>(reference.size() * kept.index.size()) /
        kept.total_s;
    v["peak_rss_mb"] = peak_rss_mb();
    result.extra.add("sim_minstr_per_s",
                     static_cast<double>(reference.size() * instructions) /
                         wall_s / 1e6,
                     "Minstr/s");
    result.extra.add("instr_per_config", static_cast<double>(instructions),
                     "count");
    result.extra.add("passes", static_cast<double>(walls.size()), "count");
    result.extra.add("fail_pct", result.tally.fail_pct(), "%");
    return result;
  }

  dsml::metrics::reset_all();
  const double cpu_before = process_cpu_s();
  trace::start("");
  trace::Stopwatch traced_timer;
  StatMeans means;
  const std::vector<double> replay = traced_sweep(options, result, means);
  const double traced_s = traced_timer.seconds();
  result.values["process.cpu_s"] = process_cpu_s() - cpu_before;
  result.values["pool.queue_wait_us"] =
      dsml::metrics::histogram("pool.queue_wait_us").mean();
  finish_trace(result, traced_s, keep_fastest(walls).median_s);
  result.tally.ok(replay.size());

  result.check(replay == reference,
               "traced replay cycles " + describe(digest(replay)) +
                   " != untraced " + describe(table));
  result.check(result.values["workload.reduced_instr"] ==
                   static_cast<double>(instructions),
               "traced replay simulated a different reduced trace");
  if (opt.seed == kDefaultSeed) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%.17g %.17g %.17g %.17g %.17g", means.ipc,
                  means.l1d_miss, means.l2_miss, means.dtlb_miss,
                  means.mispredict);
    result.check(means == kPinnedMeans,
                 std::string("SimStats means ") + buf + " != pinned");
  }
  return result;
}

}  // namespace perfbench
