#include "sim/replay.hpp"

#include <bit>
#include <iterator>

namespace dsml::sim::replay {

namespace {

std::uint16_t window_dep(std::uint32_t dep, std::size_t i) {
  return dep != 0 && dep <= i && dep < kWindowRing
             ? static_cast<std::uint16_t>(dep)
             : 0;
}

LowerAccess lower(std::uint32_t instr, LowerAccess::Kind kind) {
  return {instr << 2 | kind};
}

}  // namespace

TraceSteps trace_steps(std::span<const Instr> trace) {
  DSML_REQUIRE(trace.size() < (1U << 30), "trace_steps: trace too long");
  // Per operation class, in OpClass order. Loads get their hierarchy
  // latency in patch_latencies; stores retire once the address is
  // generated.
  struct OpSteps {
    std::uint8_t unit;
    std::uint8_t flags;
    std::uint16_t exec;
  };
  using namespace latency;
  constexpr OpSteps by_op[] = {
      {kUnitIalu, 0, kIntAlu},         {kUnitImult, 0, kIntMult},
      {kUnitFpalu, 0, kFpAlu},         {kUnitFpmult, 0, kFpMult},
      {kUnitMemport, kMem | kLoad, kAgen}, {kUnitMemport, kMem, kAgen},
      {kUnitIalu, 0, kIntAlu}};
  static_assert(static_cast<int>(OpClass::kBranch) == 6);

  TraceSteps out;
  out.steps.resize(trace.size());
  out.mem_ops.resize(trace.size());
  std::size_t mem_count = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const Instr& ins = trace[i];
    const auto op = static_cast<std::size_t>(ins.op);
    DSML_REQUIRE(op < std::size(by_op), "trace_steps: unknown op class");
    const OpSteps& o = by_op[op];
    Step& s = out.steps[i];
    s.dep1 = window_dep(ins.dep1, i);
    s.dep2 = window_dep(ins.dep2, i);
    s.unit = o.unit;
    const bool taken_branch = ins.op == OpClass::kBranch && ins.taken;
    s.flags = static_cast<std::uint8_t>(o.flags | (taken_branch ? kTaken : 0));
    s.exec = o.exec;
    out.mem_ops[mem_count] = static_cast<std::uint32_t>(i);
    mem_count += (o.flags & kMem) != 0 ? 1 : 0;
  }
  out.mem_ops.resize(mem_count);
  return out;
}

BranchStream replay_predictor(BranchPredictor& predictor,
                              std::span<const Instr> trace) {
  BranchStream out;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const Instr& ins = trace[i];
    if (ins.op != OpClass::kBranch) continue;
    ++out.branches;
    if (predictor.predict_and_update(ins.pc, ins.taken) != ins.taken) {
      ++out.mispredicts;
      out.mispredicted.push_back(static_cast<std::uint32_t>(i));
    }
  }
  return out;
}

std::vector<std::uint32_t> fetch_events(std::span<const Instr> trace,
                                        std::uint32_t line_bytes,
                                        const BranchStream& branches) {
  const auto shift = static_cast<unsigned>(
      std::countr_zero(static_cast<std::uint64_t>(line_bytes)));
  const std::vector<std::uint32_t>& missed = branches.mispredicted;
  std::vector<std::uint32_t> events(trace.size());
  std::size_t count = 0;
  std::size_t next_miss = 0;
  std::uint64_t last_line = ~0ULL;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const Instr& ins = trace[i];
    const std::uint64_t line = ins.pc >> shift;
    events[count] = static_cast<std::uint32_t>(i);
    count += line != last_line ? 1 : 0;
    // A mispredict refetches; a taken branch ends the fetch group.
    const bool mispredicted =
        next_miss < missed.size() && missed[next_miss] == i;
    next_miss += mispredicted ? 1 : 0;
    const bool refetch =
        mispredicted || (ins.op == OpClass::kBranch && ins.taken);
    last_line = refetch ? ~0ULL : line;
  }
  events.resize(count);
  return events;
}

template <typename Structure>
Stream replay_at(Structure& structure, std::span<const Instr> trace,
                 std::span<const std::uint32_t> at,
                 std::uint64_t Instr::*address) {
  Stream out;
  out.miss.resize(at.size());
  for (std::size_t k = 0; k < at.size(); ++k) {
    out.miss[k] = structure.access(trace[at[k]].*address) ? 0 : 1;
  }
  out.counts = {structure.accesses(), structure.misses()};
  return out;
}

template Stream replay_at(Tlb&, std::span<const Instr>,
                          std::span<const std::uint32_t>,
                          std::uint64_t Instr::*);
template Stream replay_at(Cache&, std::span<const Instr>,
                          std::span<const std::uint32_t>,
                          std::uint64_t Instr::*);

Stream replay_l1i(Cache& l1i, std::span<const Instr> trace,
                  std::span<const std::uint32_t> events,
                  const BranchStream& branches, bool issue_wrong) {
  Stream out;
  out.miss.resize(events.size());
  const std::uint64_t line = l1i.line_bytes();
  std::size_t w = 0;
  const std::size_t wrong = issue_wrong ? branches.mispredicted.size() : 0;
  for (std::size_t k = 0; k < events.size(); ++k) {
    // Wrong-path fetches of earlier branches come first; an event at the
    // branch itself precedes that branch's wrong path.
    for (; w < wrong && branches.mispredicted[w] < events[k]; ++w) {
      const Instr& br = trace[branches.mispredicted[w]];
      const std::uint64_t wrong_pc = br.taken ? br.pc + 4 : br.target;
      l1i.access(wrong_pc);
      l1i.access(wrong_pc + line);
    }
    out.miss[k] = l1i.access(trace[events[k]].pc) ? 0 : 1;
  }
  for (; w < wrong; ++w) {
    const Instr& br = trace[branches.mispredicted[w]];
    const std::uint64_t wrong_pc = br.taken ? br.pc + 4 : br.target;
    l1i.access(wrong_pc);
    l1i.access(wrong_pc + line);
  }
  out.counts = {l1i.accesses(), l1i.misses()};
  return out;
}

std::vector<LowerAccess> lower_accesses(
    std::span<const Instr> trace, std::span<const std::uint32_t> events,
    const Stream& l1i, std::span<const std::uint32_t> mem_ops,
    const Stream& l1d) {
  std::vector<LowerAccess> out;
  out.reserve(static_cast<std::size_t>(l1i.counts.misses + l1d.counts.misses));
  std::size_t e = 0;
  std::size_t m = 0;
  auto next_fetch = [&] {
    while (e < events.size() && !l1i.miss[e]) ++e;
  };
  auto next_data = [&] {
    while (m < mem_ops.size() && !l1d.miss[m]) ++m;
  };
  next_fetch();
  next_data();
  while (e < events.size() || m < mem_ops.size()) {
    // Within one instruction the fetch precedes the data access.
    if (m == mem_ops.size() ||
        (e < events.size() && events[e] <= mem_ops[m])) {
      out.push_back(lower(events[e++], LowerAccess::kFetch));
      next_fetch();
    } else {
      const std::uint32_t i = mem_ops[m++];
      out.push_back(lower(i, trace[i].op == OpClass::kLoad
                                 ? LowerAccess::kLoad
                                 : LowerAccess::kStore));
      next_data();
    }
  }
  return out;
}

Stream replay_l2(Cache& l2, std::span<const Instr> trace,
                 std::span<const LowerAccess> accesses) {
  Stream out;
  out.miss.resize(accesses.size());
  for (std::size_t k = 0; k < accesses.size(); ++k) {
    out.miss[k] = l2.access(accesses[k].addr(trace)) ? 0 : 1;
  }
  out.counts = {l2.accesses(), l2.misses()};
  return out;
}

Stream replay_l3(Cache& l3, std::span<const Instr> trace,
                 std::span<const LowerAccess> accesses, const Stream& l2) {
  Stream out;
  out.miss.reserve(static_cast<std::size_t>(l2.counts.misses));
  for (std::size_t k = 0; k < accesses.size(); ++k) {
    if (l2.miss[k]) {
      out.miss.push_back(l3.access(accesses[k].addr(trace)) ? 0 : 1);
    }
  }
  out.counts = {l3.accesses(), l3.misses()};
  return out;
}

void mark_front_end(std::span<Step> steps,
                    std::span<const std::uint32_t> events,
                    const BranchStream& branches) {
  constexpr auto kFrontEnd = static_cast<std::uint8_t>(kEvent | kMispredict);
  for (Step& s : steps) s.flags &= static_cast<std::uint8_t>(~kFrontEnd);
  for (const std::uint32_t i : events) steps[i].flags |= kEvent;
  for (const std::uint32_t i : branches.mispredicted) {
    steps[i].flags |= kMispredict;
  }
}

void patch_latencies(std::span<Step> steps, const ProcessorConfig& config,
                     const Hierarchy& h) {
  // Every sum below fits 16 bits (the static_assert in replay.hpp).
  using namespace latency;
  const std::uint16_t l1d_hit =
      config.l1d_size_kb >= 64 ? kL1dHitLarge : kL1dHit;
  // Latency below the L1s by depth: L2 hit, L3 hit, memory.
  const std::uint16_t l2_hit =
      config.l2_size_kb >= 1024 ? kL2HitLarge : kL2Hit;
  const std::uint16_t below[3] = {
      l2_hit, static_cast<std::uint16_t>(l2_hit + kL3Hit),
      static_cast<std::uint16_t>(l2_hit + (h.l3 ? kL3Hit : 0) + kMemory)};

  for (std::size_t k = 0; k < h.events.size(); ++k) {
    steps[h.events[k]].fetch = h.itlb->miss[k] ? kTlbMiss : 0;
  }
  for (std::size_t k = 0; k < h.mem_ops.size(); ++k) {
    Step& s = steps[h.mem_ops[k]];
    const auto load = static_cast<std::uint16_t>(
        kAgen + l1d_hit + (h.dtlb->miss[k] ? kTlbMiss : 0));
    s.exec = (s.flags & kLoad) != 0 ? load : s.exec;
  }
  std::size_t l3_at = 0;
  for (std::size_t k = 0; k < h.lower.size(); ++k) {
    const LowerAccess a = h.lower[k];
    std::size_t depth = 0;
    if (h.l2->miss[k]) {
      depth = h.l3 && !h.l3->miss[l3_at] ? 1 : 2;
      l3_at += h.l3 ? 1 : 0;
    }
    Step& s = steps[a.instr()];
    if (a.kind() == LowerAccess::kFetch) {
      s.fetch = static_cast<std::uint16_t>(s.fetch + below[depth]);
    } else if (a.kind() == LowerAccess::kLoad) {
      s.exec = static_cast<std::uint16_t>(s.exec + below[depth]);
    }
  }
}

}  // namespace dsml::sim::replay
