// RelayoutExecutor: the one way a scenario relayouts. Every relayout —
// the runner's quiesced Phase::Migrate, its live Phase::LiveMigrate, and
// each relayout the AdaptiveController starts — runs through a
// LiveMigrator here, one at a time, with the governed epoch and the
// relayout-window accounting written once.
//
// The caller owns the clock. After Start() it advances the simulator: a
// quiesced caller runs it dry; a live caller advances it in epochs
// bracketed by BeginEpoch() / CloseEpoch(), which retune the stream width
// through the MigrationGovernor when one is attached. Once finished(),
// Harvest() adds the relayout into the caller's AdaptiveControllerReport,
// so a caller that runs several relayouts reports their sum and the
// window from the first start to the last end.
#ifndef CHILLER_MIGRATE_RELAYOUT_EXECUTOR_H_
#define CHILLER_MIGRATE_RELAYOUT_EXECUTOR_H_

#include <memory>
#include <optional>

#include "cc/driver.h"
#include "cc/replication.h"
#include "common/status.h"
#include "migrate/live_migrator.h"
#include "migrate/migration_governor.h"
#include "migrate/migration_plan.h"
#include "partition/lookup_table.h"

namespace chiller::migrate {

struct AdaptiveControllerReport;

class RelayoutExecutor {
 public:
  /// `governor` set: every CloseEpoch() of a relayout in flight feeds the
  /// epoch's foreground signals to one MigrationGovernor, which keeps its
  /// width across relayouts and starts at migrator.streams. `report`
  /// (caller-owned, outliving the executor) receives the relayout fields:
  /// moves, buckets, the window and its counters, peak streams and the
  /// governor's steps. Its other fields are left to the caller.
  RelayoutExecutor(cc::Driver* driver, cc::Cluster* cluster,
                   cc::ReplicationManager* repl,
                   partition::SwappablePartitioner* live,
                   LiveMigratorOptions migrator,
                   std::optional<MigrationGovernorOptions> governor,
                   AdaptiveControllerReport* report);

  /// Opens the relayout window and starts a LiveMigrator on `plan` (see
  /// LiveMigrator::Start). FailedPrecondition if a relayout is unharvested.
  Status Start(MigrationPlan plan,
               std::unique_ptr<partition::RecordPartitioner> next);

  /// Started and still moving records.
  bool in_flight() const { return migrator_ != nullptr && !migrator_->done(); }
  /// Every record moved; Harvest() is due.
  bool finished() const { return migrator_ != nullptr && migrator_->done(); }

  /// Governed epoch bracket: BeginEpoch() snapshots the commit and
  /// migration-abort counters and drains the latency window; CloseEpoch()
  /// turns the epoch's deltas into GovernorSignals, calls Decide, and
  /// applies the width. Both are no-ops without a governor or with no
  /// relayout in flight.
  void BeginEpoch();
  void CloseEpoch();

  /// Adds the finished relayout into the report and retires its
  /// migrator. The window runs from the first relayout's start to this
  /// one's exact end; its commits and bucket-gate aborts count from each
  /// relayout's start to its harvest, so traffic up to the harvesting
  /// step's end rides along.
  void Harvest();

 private:
  cc::Driver* driver_;
  cc::Cluster* cluster_;
  cc::ReplicationManager* repl_;
  partition::SwappablePartitioner* live_;
  LiveMigratorOptions migrator_opts_;
  std::unique_ptr<MigrationGovernor> governor_;
  std::unique_ptr<LiveMigrator> migrator_;
  // Window of the relayout in flight.
  SimTime start_ = 0;
  uint64_t commits_at_start_ = 0;
  uint64_t aborts_at_start_ = 0;
  // Governed epoch snapshots.
  uint64_t epoch_commits_ = 0;
  uint64_t epoch_aborts_ = 0;
  AdaptiveControllerReport* report_;
  uint32_t harvested_ = 0;
};

}  // namespace chiller::migrate

#endif  // CHILLER_MIGRATE_RELAYOUT_EXECUTOR_H_
