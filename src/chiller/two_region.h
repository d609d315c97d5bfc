// Chiller's two-region transaction execution (paper Section 3).
#ifndef CHILLER_CHILLER_TWO_REGION_H_
#define CHILLER_CHILLER_TWO_REGION_H_

#include <atomic>
#include <memory>

#include "cc/protocol.h"

namespace chiller::core {

/// Per-protocol counters specific to two-region execution (tests and the
/// ablation benches read these). Atomics because inner_aborts is bumped at
/// the inner host's node while the others are bumped at the coordinator's —
/// under the sharded simulator those are different threads. Relaxed
/// increments: each field is an independent tally, read only at control.
struct TwoRegionCounters {
  std::atomic<uint64_t> two_region_txns{0};  ///< attempts planned two-region
  std::atomic<uint64_t> fallback_txns{0};    ///< attempts run as plain 2PL
  std::atomic<uint64_t> inner_aborts{0};     ///< inner region reported abort
  std::atomic<uint64_t> outer_aborts{0};     ///< outer region lock conflict
  std::atomic<uint64_t> inner_local{0};      ///< inner host == coordinator
};

/// The contention-centric execution protocol:
///
///  1. run-time decision — consult the hot-record lookup table and the
///     dependency graph to split ops into inner and outer regions and pick
///     the single inner host (DependencyAnalysis::Plan);
///  2. outer region — acquire locks and read every outer record (NO_WAIT);
///  3. inner region — delegate via RPC to the inner host, which executes
///     and *commits* its part unilaterally, then streams updates to its
///     replicas without waiting (the replicas ack the coordinator,
///     Figure 6);
///  4. outer commit — apply deferred value-dependent writes, replicate the
///     outer write set, apply and unlock.
///
/// The contention span of hot records collapses from two-plus network round
/// trips (Figure 3a) to the inner host's local execution time (Figure 3b).
/// Transactions with no eligible hot records fall back to plain 2PL + 2PC.
class ChillerProtocol : public cc::Protocol {
 public:
  using Protocol::Protocol;

  const char* name() const override { return "Chiller"; }

  void Execute(std::shared_ptr<txn::Transaction> t,
               sim::Task done) override;

  const TwoRegionCounters& counters() const { return counters_; }

 private:
  friend class ChillerRun;
  TwoRegionCounters counters_;
};

}  // namespace chiller::core

#endif  // CHILLER_CHILLER_TWO_REGION_H_
