// The fleet layer's sweep entry point: FleetEvaluator answers a set of
// design-space indices with exact cycle counts from a worker fleet. It is
// the ground-truth Evaluator of fleet campaigns (`dsml dse --sampler ...
// --workers`), and asked for all 4608 indices it is the full fleet sweep
// (`dsml dse --workers`, `dsml fleet`). It lives in the fleet layer (which
// sits above dse) so the campaign engine itself never takes a dependency on
// networking; tools/cli.cpp wires the two together.
//
// Every evaluate() runs a fault-tolerant round loop: ping every worker,
// partition the still-missing indices over the ones that answered
// (consistent hash, hash_ring.hpp), scatter one sweep request per worker,
// gather the shard responses. Every network step runs under a deadline
// (connect timeout + kernel-enforced I/O timeout), so a dead, wedged, or
// stalled worker costs one bounded wait, never a hang.
//
// Failure model — the invariant is "complete table or loud error, never a
// silent partial result":
//   - a worker that fails ping, dies mid-request (EOF), times out, or
//     answers ok:false is *evicted for the round*: its failure is recorded
//     as a FailureRecord (taxonomy type via error_kind) and its indices
//     return to the unassigned pool;
//   - the next round re-pings every endpoint (a supervisor-respawned worker
//     rejoins; a permanently dead one stays out), rebuilds the ring from
//     the survivors, and reassigns only the missing indices — consistent
//     hashing keeps completed shards where they are;
//   - after max_rounds, any still-missing indices raise StateError naming
//     the count. The gathered shards go through dse::merge_sweep_shards,
//     which checks exact coverage and identical sweep conditions, so the
//     answer is byte-identical to a single-process sweep of those indices.
//
// Failpoints `fleet.coordinator.scatter` / `fleet.coordinator.gather`
// inject coordinator-side connection failures; the round loop must contain
// them exactly like real worker deaths.
#pragma once

#include <string>
#include <vector>

#include "dse/campaign.hpp"
#include "fleet/coordinator.hpp"

namespace dsml::fleet {

class FleetEvaluator final : public dse::Evaluator {
 public:
  /// Throws InvalidArgument on an empty worker list.
  FleetEvaluator(std::string app, std::vector<Endpoint> workers,
                 CoordinatorOptions options);

  std::string name() const override { return "fleet"; }

  /// Scatters `indices` (strictly ascending, in the design space) across
  /// the healthy workers and merges the gathered shards into one response
  /// aligned to the request. Worker failures are tolerated (evicted +
  /// reassigned) up to max_rounds. Throws InvalidArgument on a malformed
  /// index set, StateError when coverage cannot be completed or the shards
  /// disagree on sweep conditions.
  dse::SweepShard evaluate(const std::vector<std::size_t>& indices) override;

  /// Worker failures tolerated since the last drain (evictions, timeouts).
  std::vector<FailureRecord> drain_failures() override;

  /// Endpoints evicted in some round, across every call, dedup'd.
  const std::vector<std::string>& evicted() const { return evicted_; }

  /// Assignment rounds the last evaluate() used.
  std::size_t rounds() const { return rounds_; }

  /// Workers that returned a shard in the last evaluate().
  std::size_t workers_used() const { return workers_used_; }

 private:
  std::string app_;
  std::vector<Endpoint> workers_;
  CoordinatorOptions options_;
  std::vector<FailureRecord> pending_;
  std::vector<std::string> evicted_;
  std::size_t rounds_ = 0;
  std::size_t workers_used_ = 0;
};

}  // namespace dsml::fleet
