// Program-order replay of the memory side and the branch predictor: the
// first of the simulator's two passes (the timing pass is in core.cpp).
//
// Every cache, TLB and predictor access of the timing model happens in
// program order, and none of them depends on a timing outcome. So each
// structure's outcome stream is a function of the trace and of that
// structure's own sub-configuration only:
//
//   structure           depends on
//   predictor           bp
//   fetch-line events   L1I line size, bp (taken/mispredicted branches end
//                       a fetch group)
//   ITLB                reach + the fetch-line events
//   L1I                 geometry + events + issue_wrong (wrong-path fetches
//                       touch the L1I only)
//   DTLB, L1D           reach / geometry over the memory operations
//   L2                  geometry over the L1I and L1D misses merged in
//                       program order (an instruction's fetch before its data)
//   L3                  geometry over the L2 misses
//
// The stages below compute those streams one structure at a time, each on
// a freshly built (cold) structure. simulate_batch computes each stream once
// per distinct sub-configuration and shares it among every configuration
// that depends on it, then patches the resulting latencies into
// per-instruction Steps and runs the timing pass.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/branch.hpp"
#include "sim/cache.hpp"
#include "sim/config.hpp"
#include "sim/trace.hpp"

namespace dsml::sim::replay {

/// Latencies (cycles). These mirror common sim-outorder settings for an
/// early-2000s deep pipeline.
namespace latency {
inline constexpr std::uint16_t kDecodePipeline = 3;  ///< fetch→dispatch depth
inline constexpr std::uint16_t kIntAlu = 1;
inline constexpr std::uint16_t kIntMult = 3;
inline constexpr std::uint16_t kFpAlu = 2;
inline constexpr std::uint16_t kFpMult = 4;
inline constexpr std::uint16_t kAgen = 1;  ///< address generation before D$
inline constexpr std::uint16_t kL1dHit = 1;
inline constexpr std::uint16_t kL1dHitLarge = 2;  ///< 64KB L1 pays one more
inline constexpr std::uint16_t kL2Hit = 12;
inline constexpr std::uint16_t kL2HitLarge = 15;  ///< 1MB L2 pays a little more
inline constexpr std::uint16_t kL3Hit = 40;
inline constexpr std::uint16_t kMemory = 170;
inline constexpr std::uint16_t kTlbMiss = 36;
inline constexpr std::uint16_t kMispredictRedirect = 7;  ///< resolve→refetch
}  // namespace latency

// Steps hold latencies in 16 bits: the worst case (every latency at once,
// a superset of a load missing the DTLB and every cache level) must fit.
static_assert(latency::kDecodePipeline + latency::kIntAlu + latency::kIntMult +
                  latency::kFpAlu + latency::kFpMult + latency::kAgen +
                  latency::kL1dHit + latency::kL1dHitLarge + latency::kL2Hit +
                  latency::kL2HitLarge + latency::kL3Hit + latency::kMemory +
                  latency::kTlbMiss + latency::kMispredictRedirect <=
              0xffff);

/// Access and miss totals of one structure over one replay.
struct Counts {
  std::uint64_t accesses = 0;
  std::uint64_t misses = 0;
};

/// Outcome stream of one cache or TLB: one miss flag per access, in access
/// order, plus the totals of the structure, built fresh for this replay
/// (they also count accesses that carry no flag: the L1I's wrong-path
/// fetches).
struct Stream {
  std::vector<std::uint8_t> miss;
  Counts counts;
};

/// Mispredicted branches (instruction indices, ascending) and the branch
/// totals of one predictor replay.
struct BranchStream {
  std::vector<std::uint32_t> mispredicted;
  std::uint64_t branches = 0;
  std::uint64_t mispredicts = 0;
};

/// One instruction as the timing pass sees it.
struct Step {
  std::uint16_t fetch = 0;  ///< fetch-line latency; 0 unless kEvent
  std::uint16_t exec = 0;   ///< execute latency (loads: agen + hierarchy)
  std::uint16_t dep1 = 0;   ///< producer distance inside the window, 0 = none
  std::uint16_t dep2 = 0;
  std::uint8_t unit = 0;    ///< functional-unit pool (kUnit*)
  std::uint8_t flags = 0;   ///< kEvent | kMem | kLoad | kMispredict | kTaken
};

enum : std::uint8_t { kUnitIalu, kUnitImult, kUnitFpalu, kUnitFpmult,
                      kUnitMemport, kUnitCount };
enum : std::uint8_t {
  kEvent = 1,       ///< a fetch-line lookup happens before this instruction
  kMem = 2,         ///< load or store (LSQ occupancy)
  kMispredict = 4,  ///< mispredicted branch
  kTaken = 8,       ///< taken branch
  kLoad = 16,       ///< load (its execute latency includes the hierarchy)
};

/// The completion ring of the timing pass; dependence distances at or past
/// it are treated as long ready.
inline constexpr std::size_t kWindowRing = 512;

/// The trace-only half of every Step (unit, deps, memory/taken flags, class
/// latencies; loads get agen only) and the memory-operation indices.
struct TraceSteps {
  std::vector<Step> steps;
  std::vector<std::uint32_t> mem_ops;
};
TraceSteps trace_steps(std::span<const Instr> trace);

/// Predicts and trains every branch in program order.
BranchStream replay_predictor(BranchPredictor& predictor,
                              std::span<const Instr> trace);

/// Instructions that start a new fetch line: the line changes, or the
/// previous instruction was a taken or mispredicted branch.
std::vector<std::uint32_t> fetch_events(std::span<const Instr> trace,
                                        std::uint32_t line_bytes,
                                        const BranchStream& branches);

/// Lookups of a TLB or cache at the given instructions, each at its pc
/// (`&Instr::pc`: the ITLB at the fetch-line events) or its memory address
/// (`&Instr::mem_addr`: the DTLB and L1D at the memory operations).
/// Defined for Tlb and Cache.
template <typename Structure>
Stream replay_at(Structure& structure, std::span<const Instr> trace,
                 std::span<const std::uint32_t> at,
                 std::uint64_t Instr::*address);

/// L1I lookups at the fetch-line events, plus (with issue_wrong) the two
/// wrong-path line fetches after each mispredicted branch.
Stream replay_l1i(Cache& l1i, std::span<const Instr> trace,
                  std::span<const std::uint32_t> events,
                  const BranchStream& branches, bool issue_wrong);

/// One access below the L1s: an L1I or L1D miss of instruction `instr()`
/// (at its pc for a fetch, its memory address otherwise).
struct LowerAccess {
  enum Kind : std::uint32_t { kFetch, kLoad, kStore };
  std::uint32_t code = 0;  ///< instruction index << 2 | kind

  std::uint32_t instr() const noexcept { return code >> 2; }
  Kind kind() const noexcept { return static_cast<Kind>(code & 3); }
  std::uint64_t addr(std::span<const Instr> trace) const noexcept {
    const Instr& ins = trace[instr()];
    return kind() == kFetch ? ins.pc : ins.mem_addr;
  }
};

/// The L2's input: the L1I misses among the events and the L1D misses among
/// the memory operations, merged in program order (fetch first).
std::vector<LowerAccess> lower_accesses(
    std::span<const Instr> trace, std::span<const std::uint32_t> events,
    const Stream& l1i, std::span<const std::uint32_t> mem_ops,
    const Stream& l1d);

/// L2 lookups over the lower accesses; L3 lookups over the L2 misses.
Stream replay_l2(Cache& l2, std::span<const Instr> trace,
                 std::span<const LowerAccess> accesses);
Stream replay_l3(Cache& l3, std::span<const Instr> trace,
                 std::span<const LowerAccess> accesses, const Stream& l2);

/// Marks the front-end flags of one (line, predictor) pair: kEvent at the
/// events and kMispredict at the mispredicted branches (clearing stale
/// ones from a previous pair).
void mark_front_end(std::span<Step> steps,
                    std::span<const std::uint32_t> events,
                    const BranchStream& branches);

/// The memory-side streams of one configuration (l3 is null without an L3).
struct Hierarchy {
  std::span<const std::uint32_t> events;
  const Stream* itlb = nullptr;
  const Stream* l1i = nullptr;
  std::span<const std::uint32_t> mem_ops;
  const Stream* dtlb = nullptr;
  const Stream* l1d = nullptr;
  std::span<const LowerAccess> lower;
  const Stream* l2 = nullptr;
  const Stream* l3 = nullptr;
};

/// Writes the fetch latency of every event and the execute latency of every
/// load for one configuration's hierarchy.
void patch_latencies(std::span<Step> steps, const ProcessorConfig& config,
                     const Hierarchy& h);

}  // namespace dsml::sim::replay
