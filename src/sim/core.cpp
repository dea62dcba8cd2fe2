#include "sim/core.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <tuple>

#include "common/metrics.hpp"
#include "common/thread_pool.hpp"
#include "common/trace.hpp"
#include "sim/replay.hpp"

namespace dsml::sim {

namespace {

using replay::Step;

/// Per-cycle bandwidth (dispatch, issue) as a ring keyed by cycle number
/// with lazy reset. A slot packs its cycle (high bits) and claim count (low
/// 4 bits). A claim landing kSlots or more cycles behind the newest one
/// finds its slot reused by a newer cycle and resets it; DESIGN.md records
/// how often that happens.
class SlotRing {
 public:
  explicit SlotRing(std::uint64_t per_cycle) : per_cycle_(per_cycle) {
    slots_.fill(~0ULL);
  }

  /// Earliest cycle >= `earliest` with a free slot; claims the slot.
  std::uint64_t claim(std::uint64_t earliest) {
    for (std::uint64_t c = earliest;; ++c) {
      std::uint64_t& slot = slots_[c & (kSlots - 1)];
      const std::uint64_t used = (slot >> 4) == c ? slot & 15 : 0;
      if (used < per_cycle_) {
        slot = (c << 4) | (used + 1);
        return c;
      }
    }
  }

 private:
  static constexpr std::size_t kSlots = 1024;
  std::uint64_t per_cycle_;
  std::array<std::uint64_t, kSlots> slots_;
};

/// Per-cycle bandwidth for claims that never go backwards in time (commit:
/// each claim starts at or after the previous one), so the newest cycle and
/// its claim count are the whole state.
class InOrderSlots {
 public:
  explicit InOrderSlots(std::uint64_t per_cycle) : per_cycle_(per_cycle) {}

  /// `earliest` must be >= the previous claim.
  std::uint64_t claim(std::uint64_t earliest) {
    const bool same = earliest == cycle_;
    const bool full = same && used_ == per_cycle_;
    cycle_ = earliest + (full ? 1 : 0);
    used_ = same && !full ? used_ + 1 : 1;
    return cycle_;
  }

 private:
  std::uint64_t per_cycle_;
  std::uint64_t cycle_ = 0;
  std::uint64_t used_ = 0;
};

/// Pools of identical functional units, one per unit class. Each unit is
/// pipelined (initiation interval 1), so contention comes from the unit
/// count and issue bursts. An entry packs the cycle a unit is next free
/// (high bits) with its index (low 3 bits), so one branch-free minimum over
/// a fixed eight entries yields both; unused entries hold the largest value.
class UnitPools {
 public:
  static constexpr std::size_t kMaxUnits = 8;

  explicit UnitPools(const FunctionalUnitMix& fu) {
    const int counts[replay::kUnitCount] = {fu.ialu, fu.imult, fu.fpalu,
                                            fu.fpmult, fu.memport};
    for (std::size_t p = 0; p < replay::kUnitCount; ++p) {
      DSML_REQUIRE(counts[p] >= 1 && counts[p] <= static_cast<int>(kMaxUnits),
                   "UnitPools: unit count outside [1,8]");
      for (std::size_t u = 0; u < kMaxUnits; ++u) {
        free_at_[p][u] = u < static_cast<std::size_t>(counts[p]) ? u : ~0ULL;
      }
    }
  }

  /// Earliest cycle >= `earliest` a unit of the pool can accept an op;
  /// books that unit.
  std::uint64_t acquire(std::uint8_t pool, std::uint64_t earliest) {
    std::array<std::uint64_t, kMaxUnits>& u = free_at_[pool];
    const std::uint64_t low =
        std::min(std::min(std::min(u[0], u[1]), std::min(u[2], u[3])),
                 std::min(std::min(u[4], u[5]), std::min(u[6], u[7])));
    const std::uint64_t start = std::max(earliest, low >> 3);
    u[low & 7] = ((start + 1) << 3) | (low & 7);
    return start;
  }

 private:
  std::array<std::array<std::uint64_t, kMaxUnits>, replay::kUnitCount>
      free_at_;
};

/// The timing pass: schedules the replayed steps through fetch, dispatch
/// (RUU/LSQ), issue (functional units, issue width) and commit. Returns the
/// commit cycle of the last instruction. `observe(i, dispatch, issue,
/// commit)` sees every instruction's schedule.
template <typename Observe>
std::uint64_t time_steps(std::span<const Step> steps,
                         const ProcessorConfig& config, Observe&& observe) {
  constexpr std::size_t kRing = replay::kWindowRing;
  constexpr std::size_t kMask = kRing - 1;
  static_assert((kRing & kMask) == 0);
  const auto width = static_cast<std::uint64_t>(config.width);
  const auto ruu = static_cast<std::size_t>(config.ruu_size);
  const auto lsq = static_cast<std::size_t>(config.lsq_size);
  // Rings indexed below the window read slots not yet written, which stay
  // zero: the "no constraint yet" value.
  DSML_REQUIRE(ruu < kRing && lsq < kRing,
               "time_steps: RUU/LSQ larger than the completion ring");
  constexpr std::uint64_t decode = replay::latency::kDecodePipeline;
  std::uint64_t penalty = replay::latency::kMispredictRedirect;
  if (config.issue_wrong) {
    // Wrong-path issue keeps the front end running: the machine resumes one
    // cycle earlier (the wrong path's L1I fetches happened in the replay).
    penalty = penalty > 1 ? penalty - 1 : 0;
  }

  std::array<std::uint64_t, kRing> complete{};
  std::array<std::uint64_t, kRing> commit{};
  std::array<std::uint64_t, kRing> mem_commit{};  // commit of memory ops
  SlotRing dispatch_bw(width);
  SlotRing issue_bw(width);
  InOrderSlots commit_bw(width);
  UnitPools units(config.fu);

  std::uint64_t fetch_ready = 1;  // cycle the next fetch group can start
  std::uint64_t fetched_in_group = 0;
  std::uint64_t prev_commit = 0;
  std::size_t mem_count = 0;

  for (std::size_t i = 0; i < steps.size(); ++i) {
    const Step s = steps[i];
    const bool mem = (s.flags & replay::kMem) != 0;

    // fetch: a new line costs its lookup latency; `width` per group.
    fetch_ready += s.fetch;
    fetched_in_group =
        (s.flags & replay::kEvent) != 0 ? 1 : fetched_in_group + 1;
    const bool next_group = fetched_in_group > width;
    fetch_ready += next_group ? 1 : 0;
    fetched_in_group = next_group ? 1 : fetched_in_group;
    const std::uint64_t fetch_time = fetch_ready;

    // dispatch: instruction i waits for i - ruu to commit; a memory op also
    // for the memory op lsq places back.
    const std::uint64_t lsq_free = mem_commit[(mem_count - lsq) & kMask];
    const std::uint64_t window_free =
        std::max(commit[(i - ruu) & kMask], mem ? lsq_free : 0);
    const std::uint64_t dispatch_time =
        dispatch_bw.claim(std::max(fetch_time + decode, window_free));

    // operand readiness
    std::uint64_t ready = dispatch_time + 1;
    ready = std::max(ready, s.dep1 != 0 ? complete[(i - s.dep1) & kMask] : 0);
    ready = std::max(ready, s.dep2 != 0 ? complete[(i - s.dep2) & kMask] : 0);

    // issue & execute
    const std::uint64_t issue_time =
        issue_bw.claim(units.acquire(s.unit, ready));
    const std::uint64_t complete_time = issue_time + s.exec;

    // branch resolution: a mispredict refetches after the redirect; a
    // correctly predicted taken branch still ends the fetch group.
    const std::uint64_t refetch =
        (s.flags & replay::kMispredict) != 0 ? complete_time + penalty
        : (s.flags & replay::kTaken) != 0    ? fetch_time + 1
                                              : 0;
    fetch_ready = std::max(fetch_ready, refetch);

    // commit: in order, `width` per cycle.
    const std::uint64_t commit_time =
        commit_bw.claim(std::max(complete_time + 1, prev_commit));
    prev_commit = commit_time;
    complete[i & kMask] = complete_time;
    commit[i & kMask] = commit_time;
    // Written for every instruction; only a memory op advances the count,
    // so the slot ends up holding the memory op's commit.
    mem_commit[mem_count & kMask] = commit_time;
    mem_count += mem ? 1 : 0;
    observe(i, dispatch_time, issue_time, commit_time);
  }
  return prev_commit;
}

struct NoObserver {
  void operator()(std::size_t, std::uint64_t, std::uint64_t,
                  std::uint64_t) const noexcept {}
};

double rate(const replay::Counts& c) {
  return c.accesses > 0 ? static_cast<double>(c.misses) /
                              static_cast<double>(c.accesses)
                        : 0.0;
}

/// The counts of every structure one configuration's statistics come from.
struct StructureCounts {
  replay::Counts l1d, l1i, l2, l3, itlb, dtlb;
};

SimResult make_result(std::size_t instructions, std::uint64_t cycles,
                      const replay::BranchStream& branches,
                      const StructureCounts& c, bool has_l3) {
  SimResult result;
  result.cycles = cycles;
  SimStats& s = result.stats;
  s.instructions = instructions;
  s.cycles = cycles;
  s.ipc = cycles > 0 ? static_cast<double>(instructions) /
                           static_cast<double>(cycles)
                     : 0.0;
  s.l1d_miss_rate = rate(c.l1d);
  s.l1i_miss_rate = rate(c.l1i);
  s.l2_miss_rate = rate(c.l2);
  s.l3_miss_rate = has_l3 ? rate(c.l3) : 0.0;
  s.branch_count = branches.branches;
  s.mispredicts = branches.mispredicts;
  s.branch_mispredict_rate =
      rate({branches.branches, branches.mispredicts});
  s.itlb_miss_rate = rate(c.itlb);
  s.dtlb_miss_rate = rate(c.dtlb);
  return result;
}

Cache make_cache(int size_kb, int line_b, int assoc) {
  return Cache(static_cast<std::uint64_t>(size_kb) * 1024,
               static_cast<std::uint32_t>(line_b),
               static_cast<std::uint32_t>(assoc));
}

/// Numbers distinct keys in first-seen order.
template <typename Key>
class Ids {
 public:
  std::size_t operator()(const Key& key) {
    const auto [it, inserted] = ids_.try_emplace(key, keys_.size());
    if (inserted) keys_.push_back(key);
    return it->second;
  }
  const std::vector<Key>& keys() const noexcept { return keys_; }
  std::size_t size() const noexcept { return keys_.size(); }

 private:
  std::map<Key, std::size_t> ids_;
  std::vector<Key> keys_;
};

using Geometry = std::tuple<int, int, int>;  // size, line, assoc

/// Which shared stream each configuration uses.
struct Plan {
  std::size_t bp = 0, events = 0, itlb = 0, l1i = 0, dtlb = 0, l1d = 0;
};

/// The body of simulate_batch. `observer_for(k)` returns the observer that
/// sees configuration k's timing pass (see time_steps).
template <typename ObserverFor>
std::vector<SimResult> simulate_observed(
    std::span<const ProcessorConfig> configs, const Trace& trace,
    ObserverFor&& observer_for) {
  DSML_REQUIRE(!trace.instrs.empty(), "simulate_batch: empty trace");
  for (const ProcessorConfig& c : configs) c.validate();
  const std::span<const Instr> instrs = trace.span();
  const replay::TraceSteps base = replay::trace_steps(instrs);

  // Number each structure's distinct sub-configurations.
  Ids<BranchPredictorKind> bp_ids;
  Ids<std::pair<int, std::size_t>> event_ids;           // line, bp
  Ids<std::pair<int, std::size_t>> itlb_ids;            // reach, events
  Ids<std::tuple<Geometry, std::size_t, std::size_t, bool>>
      l1i_ids;  // geometry, events, bp, iw
  Ids<int> dtlb_ids;                                    // reach
  Ids<Geometry> l1d_ids;
  Ids<std::pair<std::size_t, std::size_t>> group_ids;   // l1d, l1i
  std::vector<Plan> plans(configs.size());
  std::vector<std::vector<std::size_t>> groups;
  for (std::size_t k = 0; k < configs.size(); ++k) {
    const ProcessorConfig& c = configs[k];
    Plan& p = plans[k];
    p.bp = bp_ids(c.branch_predictor);
    p.events = event_ids({c.l1i_line_b, p.bp});
    p.itlb = itlb_ids({c.itlb_size_kb, p.events});
    p.l1i = l1i_ids({{c.l1i_size_kb, c.l1i_line_b, c.l1i_assoc}, p.events,
                     p.bp, c.issue_wrong});
    p.dtlb = dtlb_ids(c.dtlb_size_kb);
    p.l1d = l1d_ids({c.l1d_size_kb, c.l1d_line_b, c.l1d_assoc});
    const std::size_t g = group_ids({p.l1d, p.l1i});
    if (g == groups.size()) groups.emplace_back();
    groups[g].push_back(k);
  }

  // Front end: predictors, then fetch-line events.
  std::vector<replay::BranchStream> branches(bp_ids.size());
  for (std::size_t b = 0; b < bp_ids.size(); ++b) {
    auto predictor = make_branch_predictor(bp_ids.keys()[b]);
    branches[b] = replay::replay_predictor(*predictor, instrs);
  }
  std::vector<std::vector<std::uint32_t>> events(event_ids.size());
  for (std::size_t e = 0; e < event_ids.size(); ++e) {
    const auto& [line, bp] = event_ids.keys()[e];
    events[e] = replay::fetch_events(
        instrs, static_cast<std::uint32_t>(line), branches[bp]);
  }

  // L1s and TLBs, each once per distinct sub-configuration.
  std::vector<replay::Stream> itlb(itlb_ids.size());
  std::vector<replay::Stream> l1i(l1i_ids.size());
  std::vector<replay::Stream> dtlb(dtlb_ids.size());
  std::vector<replay::Stream> l1d(l1d_ids.size());
  const std::size_t l1_tasks =
      itlb.size() + l1i.size() + dtlb.size() + l1d.size();
  {
    trace::Span span("sim.replay.l1", "sim");
    parallel_for(0, l1_tasks, [&](std::size_t t) {
      if (t < itlb.size()) {
        const auto& [reach, e] = itlb_ids.keys()[t];
        Tlb tlb(static_cast<std::uint64_t>(reach));
        itlb[t] = replay::replay_at(tlb, instrs, events[e], &Instr::pc);
        return;
      }
      t -= itlb.size();
      if (t < l1i.size()) {
        const auto& [geometry, e, bp, issue_wrong] = l1i_ids.keys()[t];
        const auto& [size, line, assoc] = geometry;
        Cache cache = make_cache(size, line, assoc);
        l1i[t] = replay::replay_l1i(cache, instrs, events[e], branches[bp],
                                    issue_wrong);
        return;
      }
      t -= l1i.size();
      if (t < dtlb.size()) {
        Tlb tlb(static_cast<std::uint64_t>(dtlb_ids.keys()[t]));
        dtlb[t] =
            replay::replay_at(tlb, instrs, base.mem_ops, &Instr::mem_addr);
        return;
      }
      t -= dtlb.size();
      const auto& [size, line, assoc] = l1d_ids.keys()[t];
      Cache cache = make_cache(size, line, assoc);
      l1d[t] =
          replay::replay_at(cache, instrs, base.mem_ops, &Instr::mem_addr);
    }, 1);
  }

  // Per group (shared L1s, predictor, wrong-path setting): the L2/L3
  // streams, then the timing pass per configuration.
  std::vector<SimResult> results(configs.size());
  static metrics::Histogram& config_us = metrics::histogram("sim.config_us");
  parallel_for(0, groups.size(), [&](std::size_t g) {
    const std::vector<std::size_t>& members = groups[g];
    const Plan& gp = plans[members.front()];
    const std::vector<std::uint32_t>& group_events = events[gp.events];
    const replay::BranchStream& group_branches = branches[gp.bp];

    // L2 streams per L2 geometry; L3 streams per (L2, L3) geometry pair.
    std::vector<replay::LowerAccess> lower;
    Ids<Geometry> l2_ids;
    Ids<std::pair<std::size_t, Geometry>> l3_ids;
    std::vector<replay::Stream> l2;
    std::vector<replay::Stream> l3;
    {
      trace::Span span("sim.replay.lower", "sim");
      lower = replay::lower_accesses(instrs, group_events, l1i[gp.l1i],
                                     base.mem_ops, l1d[gp.l1d]);
      for (const std::size_t k : members) {
        const ProcessorConfig& c = configs[k];
        const std::size_t j = l2_ids({c.l2_size_kb, c.l2_line_b, c.l2_assoc});
        if (j == l2.size()) {
          Cache cache = make_cache(c.l2_size_kb, c.l2_line_b, c.l2_assoc);
          l2.push_back(replay::replay_l2(cache, instrs, lower));
        }
        if (!c.has_l3()) continue;
        if (l3_ids({j, {c.l3_size_mb, c.l3_line_b, c.l3_assoc}}) == l3.size()) {
          Cache cache = make_cache(c.l3_size_mb * 1024, c.l3_line_b,
                                   c.l3_assoc);
          l3.push_back(replay::replay_l3(cache, instrs, lower, l2[j]));
        }
      }
    }

    trace::Span span("sim.timing", "sim");
    std::vector<Step> steps = base.steps;
    replay::mark_front_end(steps, group_events, group_branches);
    // Configurations sharing a hierarchy (they differ in timing parameters
    // only) share one patch of the steps.
    using Latencies = std::tuple<std::size_t, std::size_t, std::size_t,
                                 std::size_t>;  // l2, l3 + 1 (0 = none), TLBs
    std::map<Latencies, std::vector<std::size_t>> by_latencies;
    for (const std::size_t k : members) {
      const ProcessorConfig& c = configs[k];
      const std::size_t j = l2_ids({c.l2_size_kb, c.l2_line_b, c.l2_assoc});
      const std::size_t l3_slot =
          c.has_l3() ? l3_ids({j, {c.l3_size_mb, c.l3_line_b, c.l3_assoc}}) + 1
                     : 0;
      by_latencies[{j, l3_slot, plans[k].itlb, plans[k].dtlb}].push_back(k);
    }
    for (const auto& [key, sharing] : by_latencies) {
      const auto& [j, l3_slot, itlb_id, dtlb_id] = key;
      const replay::Stream* l3_stream =
          l3_slot > 0 ? &l3[l3_slot - 1] : nullptr;
      replay::patch_latencies(
          steps, configs[sharing.front()],
          {group_events, &itlb[itlb_id], &l1i[gp.l1i], base.mem_ops,
           &dtlb[dtlb_id], &l1d[gp.l1d], lower, &l2[j], l3_stream});
      const StructureCounts counts{
          l1d[gp.l1d].counts, l1i[gp.l1i].counts, l2[j].counts,
          l3_stream ? l3_stream->counts : replay::Counts{},
          itlb[itlb_id].counts, dtlb[dtlb_id].counts};
      for (const std::size_t k : sharing) {
        trace::Stopwatch timer;
        const std::uint64_t cycles =
            time_steps(steps, configs[k], observer_for(k));
        results[k] = make_result(instrs.size(), cycles, group_branches, counts,
                                 configs[k].has_l3());
        config_us.observe(timer.seconds() * 1e6);
      }
    }
  }, 1);
  return results;
}

}  // namespace

SimResult simulate(const ProcessorConfig& config, const Trace& trace) {
  return simulate_batch(std::span<const ProcessorConfig>(&config, 1),
                        trace)[0];
}

std::vector<SimResult> simulate_batch(std::span<const ProcessorConfig> configs,
                                      const Trace& trace) {
  return simulate_observed(configs, trace,
                           [](std::size_t) { return NoObserver{}; });
}

Schedule simulate_schedule(const ProcessorConfig& config, const Trace& trace) {
  Schedule schedule;
  schedule.dispatch.resize(trace.size());
  schedule.issue.resize(trace.size());
  schedule.commit.resize(trace.size());
  const auto record = [&](std::size_t i, std::uint64_t d, std::uint64_t is,
                          std::uint64_t c) {
    schedule.dispatch[i] = d;
    schedule.issue[i] = is;
    schedule.commit[i] = c;
  };
  schedule.cycles =
      simulate_observed(std::span<const ProcessorConfig>(&config, 1), trace,
                        [&](std::size_t) { return record; })[0]
          .cycles;
  return schedule;
}

}  // namespace dsml::sim
