// AdaptiveController: the continuous sample -> replan -> migrate loop of
// paper Section 4.1, run as a periodic background activity instead of a
// one-shot phase pair.
//
// The controller interleaves with the driver's Advance loop: each epoch it
// attaches a sampling StatsCollector to the commit observer, advances one
// period of simulated time, rebuilds a candidate Chiller layout from the
// epoch's traces, and measures *drift* — the fraction of resident primary
// records whose placement would change under the candidate. Drift above
// the threshold starts a LiveMigrator (traffic keeps flowing; the
// controller skips replanning while a relayout is in flight). Hysteresis:
// after `hysteresis_epochs` consecutive calm epochs the controller settles
// — sampling and replanning stop, so a stable workload pays nothing.
//
// Three extensions on that loop:
//
//   * governor — while a relayout is in flight, a MigrationGovernor reads
//     the epoch's foreground signals (commit-latency p99 from the driver's
//     latency window, migration-abort share from the lifetime counters)
//     and retunes the migrator's concurrent stream width each epoch;
//   * re-arm (rearm_threshold > 0) — settling stops being terminal: every
//     settled epoch attaches a fresh probe collector, scores the live
//     layout's per-trace residual contention on the probe, and compares it
//     with the calm-state baseline (the best probe seen since settling). A
//     relative worsening beyond the threshold (hot-set rotation, diurnal
//     swing) re-arms sample -> replan -> migrate, discarding the old
//     regime's cumulative traces;
//   * shadow — the loop samples and scores candidates every epoch but
//     never starts a migrator and never settles: a zero-risk observer
//     whose drift readings show what the layout *would* gain.
#ifndef CHILLER_MIGRATE_ADAPTIVE_CONTROLLER_H_
#define CHILLER_MIGRATE_ADAPTIVE_CONTROLLER_H_

#include <functional>
#include <memory>

#include "cc/driver.h"
#include "cc/replication.h"
#include "common/status.h"
#include "migrate/live_migrator.h"
#include "migrate/migration_governor.h"
#include "migrate/relayout_executor.h"
#include "partition/lookup_table.h"
#include "partition/stats_collector.h"

namespace chiller::migrate {

struct AdaptiveControllerOptions {
  /// Epoch length: one sample window + one replan decision per period.
  SimTime period = 2 * kMillisecond;
  /// Fraction of committed transactions the epoch collector records.
  double sample_rate = 1.0;
  /// Drift above which a relayout starts: the *relative residual-
  /// contention improvement* (partition::ResidualContention on the epoch's
  /// traces) the candidate layout would deliver over the live one. ~1.0
  /// means the live layout is obsolete (hash start, workload shift); ~0
  /// means converged — deliberately cost-based, so the min-cut's symmetric
  /// relabelings of an already-good layout read as zero drift.
  double drift_threshold = 0.1;
  /// Consecutive calm (below-threshold) epochs before the controller
  /// settles and stops sampling.
  uint32_t hysteresis_epochs = 2;
  /// Replan knobs (see partition::ChillerPartitioner::Options).
  double hot_threshold = 0.05;
  double lock_window_txns = 16.0;
  /// Relayout bucket count for plans and the lock-table epoch.
  uint32_t relayout_buckets = 64;
  /// migrator.streams is the relayout width at Start (and the governor's
  /// starting point when the governor is enabled).
  LiveMigratorOptions migrator;
  /// Attach a MigrationGovernor: every mid-relayout epoch retunes the
  /// stream width against the foreground SLO in governor_opts.
  bool governor = false;
  MigrationGovernorOptions governor_opts;
  /// Relative worsening of the live layout's per-trace residual contention
  /// (vs the calm-state baseline probed after settling) that re-arms the
  /// loop. 0 keeps the legacy behavior: settling is terminal.
  double rearm_threshold = 0.0;
  /// Score candidates every epoch but never migrate and never settle.
  bool shadow = false;
  /// Seed for the epoch collectors (stream-split per epoch).
  uint64_t seed = 1;
};

/// What the loop did. RelayoutExecutor::Harvest adds every relayout's
/// fields (moves through window_aborts, peak_streams, the governor's
/// steps) straight into it; the loop writes the rest.
struct AdaptiveControllerReport {
  uint32_t epochs = 0;           ///< periods advanced
  uint32_t migrations = 0;       ///< relayouts started
  uint64_t sampled_txns = 0;     ///< across every epoch collector
  uint64_t moved_records = 0;
  uint64_t moved_bytes = 0;
  SimTime migration_sim_time = 0;  ///< summed in-flight spans
  uint32_t buckets_moved = 0;      ///< relayout buckets completed
  /// Relayout window on the simulator clock, at epoch granularity: the
  /// first relayout's start to the epoch boundary where the last one was
  /// harvested (zero when no relayout ran). The exact in-flight span is
  /// migration_sim_time; this window matches the counters below, so
  /// commits / (end - start) is a consistent rate. (A runner phase plan's
  /// relayouts end the window at the last one's exact end instead.)
  SimTime first_migration_start = 0;
  SimTime last_migration_end = 0;
  /// Commits / bucket-gate aborts inside [first_migration_start,
  /// last_migration_end] — up to one period of post-completion traffic
  /// per relayout rides along, matching the window above.
  uint64_t window_commits = 0;
  uint64_t window_aborts = 0;
  bool settled = false;          ///< hysteresis tripped; loop went quiet
  uint32_t rearms = 0;           ///< settled -> re-armed transitions
  uint32_t shadow_evals = 0;     ///< shadow-mode candidate scorings
  double last_drift = 0.0;       ///< most recent replan's drift reading
  uint32_t peak_streams = 0;     ///< max concurrent streams, any relayout
  uint32_t governor_widens = 0;
  uint32_t governor_narrows = 0;
};

class AdaptiveController {
 public:
  AdaptiveController(cc::Driver* driver, cc::Cluster* cluster,
                     cc::ReplicationManager* repl,
                     partition::SwappablePartitioner* live,
                     AdaptiveControllerOptions options);
  ~AdaptiveController();

  /// Runs at least `duration` of simulated time in period-sized epochs,
  /// advancing through `advance` (defaults to driver->Advance; the runner
  /// injects a timeline-slicing wrapper). If a relayout is still in flight
  /// when the duration elapses, advancing continues in period steps until
  /// it settles, so the loop never ends with routing mid-transition.
  /// Returns the total simulated time advanced.
  StatusOr<SimTime> RunFor(
      SimTime duration,
      const std::function<void(SimTime)>& advance = nullptr);

  const AdaptiveControllerReport& report() const { return report_; }

 private:
  /// Arms the epoch's observer (cumulative collector while hunting, probe
  /// collector while settled with re-arm) and snapshots the governor's
  /// epoch-start counters when a relayout is in flight.
  void BeginEpoch();
  /// Ends the epoch: detach sampling, replan, measure drift, maybe start a
  /// relayout, update hysteresis. Governs the stream width instead while a
  /// relayout is in flight, and probes for re-arm while settled.
  void CloseEpoch();
  /// Settled-epoch drift probe: compare the probe collector's live-layout
  /// residual with the calm-state baseline, re-arm past the threshold.
  void MaybeRearm();

  cc::Driver* driver_;
  cc::Cluster* cluster_;
  partition::SwappablePartitioner* live_;
  AdaptiveControllerOptions opts_;

  std::unique_ptr<partition::StatsCollector> collector_;
  // Declared before relayout_, which adds every harvested relayout here.
  AdaptiveControllerReport report_;
  RelayoutExecutor relayout_;
  // Registry mirrors of the loop's own control-plane accounting
  // ("controller.*"): the report stays the derived JSON source, the
  // registry puts the loop's activity on the trace timeline.
  obs::MetricsRegistry::Counter* c_epochs_ = nullptr;
  obs::MetricsRegistry::Counter* c_migrations_ = nullptr;
  obs::MetricsRegistry::Counter* c_rearms_ = nullptr;
  /// Fresh per-epoch collector while settled with re-arm enabled.
  std::unique_ptr<partition::StatsCollector> probe_;
  uint32_t calm_epochs_ = 0;
  /// Calm-state per-trace residual of the live layout, ratcheted down over
  /// settled epochs; 0 until the first settled probe lands.
  double baseline_residual_ = 0.0;
  /// sampled_txns() of collectors already retired (re-arm discards them).
  uint64_t sampled_retired_ = 0;
};

}  // namespace chiller::migrate

#endif  // CHILLER_MIGRATE_ADAPTIVE_CONTROLLER_H_
