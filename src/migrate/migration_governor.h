// MigrationGovernor: the SLO-driven pacer for concurrent relayout streams.
//
// The LiveMigrator exposes one live knob — how many relayout buckets are
// in flight at once (SetTargetStreams). The governor turns that knob once
// per controller epoch from two foreground signals measured over the
// epoch just closed:
//
//   * abort pressure — the share of foreground outcomes the bucket gate
//     turned into migration aborts (migration_aborts /
//     (commits + migration_aborts));
//   * commit latency — the p99 of foreground commit latency, against a
//     spec'd budget.
//
// The policy is AIMD, the shape throughput-vs-pressure trades want (see
// the transaction-scheduling line of work in PAPERS.md): every calm epoch
// widens by one stream (additive increase, so relayout tends toward ~1/k
// of the serial window on calm workloads), any violated budget halves the
// width (multiplicative decrease, floor min_streams) so a latency or
// abort spike sheds migration pressure within one epoch. Decisions are a
// pure function of the signals, so governed runs stay byte-identical for
// any shard count.
#ifndef CHILLER_MIGRATE_MIGRATION_GOVERNOR_H_
#define CHILLER_MIGRATE_MIGRATION_GOVERNOR_H_

#include <cstdint>

#include "common/types.h"
#include "obs/metrics_registry.h"

namespace chiller::migrate {

struct MigrationGovernorOptions {
  uint32_t min_streams = 1;
  uint32_t max_streams = 8;
  /// Foreground commit-latency p99 budget per epoch; 0 disables the
  /// latency signal (abort share still governs).
  SimTime p99_budget = 0;
  /// Largest tolerated share of foreground outcomes aborted by the
  /// migration bucket gate per epoch, in [0, 1].
  double max_abort_share = 0.05;
};

/// One epoch's foreground observations, as deltas over the epoch.
struct GovernorSignals {
  uint64_t commits = 0;
  uint64_t migration_aborts = 0;
  /// Foreground commit-latency p99 over the epoch; 0 when no commits
  /// landed (treated as calm — an idle epoch is not a latency violation).
  SimTime p99 = 0;
};

struct MigrationGovernorReport {
  uint32_t decisions = 0;
  uint32_t widens = 0;   ///< epochs that grew the stream width
  uint32_t narrows = 0;  ///< epochs that halved it
};

class MigrationGovernor {
 public:
  /// Decision, widen and narrow counts live in the registry's "governor.*"
  /// counters and report() is their diff since construction; the
  /// stream-width gauge reaches the trace timeline through registry
  /// snapshots.
  MigrationGovernor(MigrationGovernorOptions options, uint32_t initial_streams,
                    obs::MetricsRegistry* registry);

  /// Folds one epoch's signals into the width and returns the new target
  /// (feed it straight to LiveMigrator::SetTargetStreams).
  uint32_t Decide(const GovernorSignals& signals);

  uint32_t target() const { return target_; }
  MigrationGovernorReport report() const;

 private:
  MigrationGovernorOptions opts_;
  uint32_t target_ = 0;
  obs::MetricsRegistry::Counter* c_decisions_;
  obs::MetricsRegistry::Counter* c_widens_;
  obs::MetricsRegistry::Counter* c_narrows_;
  obs::MetricsRegistry::Gauge* g_width_;
  // This governor's base offsets into the cluster-wide counters.
  uint64_t base_decisions_;
  uint64_t base_widens_;
  uint64_t base_narrows_;
};

}  // namespace chiller::migrate

#endif  // CHILLER_MIGRATE_MIGRATION_GOVERNOR_H_
