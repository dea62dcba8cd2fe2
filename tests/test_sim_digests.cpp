// Golden digests of the simulator for all five applications.
//
// Each application's section of tests/data/sim/cycle_digests.txt pins, at a
// tiny sweep fidelity:
//   - the exact sum and an FNV-1a hash of its 4608-configuration cycle table
//     (dse::run_design_space_sweep, uncached);
//   - the means of every SimStats field over the same 4608 configurations;
//   - one run_sweep_shard slice over a scattered, unordered index set.
// Any change to the simulator that moves one cycle or one rate fails here.
//
// Regenerate (only when a behaviour change is intended and reviewed):
//   DSML_SIM_DIGESTS_OUT=<dir> ./build/tests/test_sim_digests
//   cat <dir>/{applu,equake,gcc,mcf,mesa}.txt > tests/data/sim/cycle_digests.txt
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "dse/sweep.hpp"
#include "sim/core.hpp"
#include "workload/generator.hpp"
#include "workload/profiles.hpp"
#include "workload/simpoint.hpp"

namespace dsml {
namespace {

dse::SweepOptions digest_options() {
  dse::SweepOptions opt;
  opt.full_trace_instructions = 48000;
  opt.interval_instructions = 6000;
  opt.max_clusters = 3;
  opt.use_cache = false;
  return opt;
}

std::string exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t fnv1a(const std::vector<double>& cycles) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const double c : cycles) {
    auto v = static_cast<std::uint64_t>(c);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= v & 0xff;
      h *= 0x100000001b3ULL;
      v >>= 8;
    }
  }
  return h;
}

/// A scattered, unordered index set like the ones a fleet coordinator's
/// consistent hash hands a worker.
std::vector<std::size_t> shard_indices() {
  std::vector<std::size_t> indices;
  std::vector<bool> seen(sim::kDesignSpaceSize, false);
  for (std::uint64_t k = 0; k < 40; ++k) {
    const auto idx = static_cast<std::size_t>((k * 2654435761ULL + 977) %
                                              sim::kDesignSpaceSize);
    if (!seen[idx]) {
      seen[idx] = true;
      indices.push_back(idx);
    }
  }
  return indices;
}

std::string app_digest(const std::string& app) {
  const dse::SweepOptions opt = digest_options();
  std::ostringstream out;
  out << "[" << app << "]\n";

  const dse::SweepResult sweep = dse::run_design_space_sweep(app, opt);
  double sum = 0.0;
  for (const double c : sweep.cycles) sum += c;
  out << "table configs=" << sweep.cycles.size() << " sum=" << exact(sum)
      << " fnv=" << hex(fnv1a(sweep.cycles))
      << " simpoints=" << sweep.simpoint_count
      << " instructions=" << sweep.simulated_instructions << "\n";

  const workload::AppProfile profile = workload::spec_profile(app);
  const sim::Trace full = workload::generate_trace(
      profile, opt.full_trace_instructions, opt.trace_seed);
  const workload::SimPoints points = workload::choose_simpoints(
      full, opt.interval_instructions, opt.max_clusters);
  const sim::Trace reduced = workload::extract_intervals(full, points);

  const std::vector<sim::ProcessorConfig> space = sim::enumerate_design_space();
  const std::vector<sim::SimResult> results =
      sim::simulate_batch(space, reduced);
  bool table_matches = true;
  double ipc = 0, l1d = 0, l1i = 0, l2 = 0, l3 = 0, bp = 0, itlb = 0,
         dtlb = 0;
  std::uint64_t instructions = 0, branches = 0, mispredicts = 0;
  for (std::size_t i = 0; i < space.size(); ++i) {
    const sim::SimStats& s = results[i].stats;
    table_matches &= static_cast<double>(s.cycles) == sweep.cycles[i];
    ipc += s.ipc;
    l1d += s.l1d_miss_rate;
    l1i += s.l1i_miss_rate;
    l2 += s.l2_miss_rate;
    l3 += s.l3_miss_rate;
    bp += s.branch_mispredict_rate;
    itlb += s.itlb_miss_rate;
    dtlb += s.dtlb_miss_rate;
    instructions += s.instructions;
    branches += s.branch_count;
    mispredicts += s.mispredicts;
  }
  const auto n = static_cast<double>(space.size());
  out << "stats_match_table=" << (table_matches ? "yes" : "no") << "\n"
      << "means ipc=" << exact(ipc / n) << " l1d=" << exact(l1d / n)
      << " l1i=" << exact(l1i / n) << " l2=" << exact(l2 / n)
      << " l3=" << exact(l3 / n) << "\n"
      << "means mispredict=" << exact(bp / n) << " itlb=" << exact(itlb / n)
      << " dtlb=" << exact(dtlb / n) << "\n"
      << "totals instructions=" << instructions << " branches=" << branches
      << " mispredicts=" << mispredicts << "\n";

  const dse::SweepShard shard =
      dse::run_sweep_shard(app, opt, shard_indices());
  out << "shard";
  for (std::size_t i = 0; i < shard.indices.size(); ++i) {
    out << " " << shard.indices[i] << "=" << exact(shard.cycles[i]);
  }
  out << "\n";
  return out.str();
}

std::string golden_section(const std::string& app) {
  const std::string path =
      std::string(DSML_REPO_ROOT) + "/tests/data/sim/cycle_digests.txt";
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream section;
  bool inside = false;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line.front() == '[') inside = line == "[" + app + "]";
    if (inside) section << line << "\n";
  }
  return section.str();
}

class SimDigest : public ::testing::TestWithParam<std::string> {};

TEST_P(SimDigest, MatchesTheGolden) {
  const std::string app = GetParam();
  const std::string text = app_digest(app);
  if (const char* dir = std::getenv("DSML_SIM_DIGESTS_OUT"); dir && *dir) {
    std::ofstream(std::string(dir) + "/" + app + ".txt") << text;
  }
  EXPECT_EQ(text, golden_section(app));
}

INSTANTIATE_TEST_SUITE_P(Apps, SimDigest,
                         ::testing::Values("applu", "equake", "gcc", "mcf",
                                           "mesa"),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace dsml
