#include "migrate/relayout_executor.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "migrate/adaptive_controller.h"

namespace chiller::migrate {

RelayoutExecutor::RelayoutExecutor(
    cc::Driver* driver, cc::Cluster* cluster, cc::ReplicationManager* repl,
    partition::SwappablePartitioner* live, LiveMigratorOptions migrator,
    std::optional<MigrationGovernorOptions> governor,
    AdaptiveControllerReport* report)
    : driver_(driver),
      cluster_(cluster),
      repl_(repl),
      live_(live),
      migrator_opts_(migrator),
      report_(report) {
  if (governor.has_value()) {
    // The governor's option checks fire here, at construction.
    governor_ = std::make_unique<MigrationGovernor>(
        *governor, std::max<uint32_t>(1, migrator.streams),
        cluster_->metrics());
  }
}

Status RelayoutExecutor::Start(
    MigrationPlan plan, std::unique_ptr<partition::RecordPartitioner> next) {
  if (migrator_ != nullptr) {
    return Status::FailedPrecondition(
        "the previous relayout has not been harvested");
  }
  migrator_ =
      std::make_unique<LiveMigrator>(cluster_, repl_, live_, migrator_opts_);
  start_ = cluster_->sim()->now();
  commits_at_start_ = driver_->lifetime_commits();
  aborts_at_start_ = driver_->lifetime_migration_aborts();
  const Status st = migrator_->Start(std::move(plan), std::move(next));
  if (!st.ok()) migrator_.reset();
  return st;
}

void RelayoutExecutor::BeginEpoch() {
  if (governor_ == nullptr || !in_flight()) return;
  epoch_commits_ = driver_->lifetime_commits();
  epoch_aborts_ = driver_->lifetime_migration_aborts();
  // Draining here scopes the epoch's p99 to this epoch alone.
  driver_->TakeCommitLatencyWindow();
}

void RelayoutExecutor::CloseEpoch() {
  if (governor_ == nullptr || !in_flight()) return;
  // The decision is a pure function of shard-invariant counters, so
  // governed runs stay byte-identical for any shard count.
  GovernorSignals signals;
  signals.commits = driver_->lifetime_commits() - epoch_commits_;
  signals.migration_aborts =
      driver_->lifetime_migration_aborts() - epoch_aborts_;
  const Histogram window = driver_->TakeCommitLatencyWindow();
  signals.p99 = window.count() == 0 ? 0 : window.Percentile(99.0);
  migrator_->SetTargetStreams(governor_->Decide(signals));
  const MigrationGovernorReport rep = governor_->report();
  report_->governor_widens = rep.widens;
  report_->governor_narrows = rep.narrows;
}

void RelayoutExecutor::Harvest() {
  CHILLER_CHECK(finished()) << "Harvest before the relayout finished";
  const LiveMigrationStats& ms = migrator_->stats();
  if (harvested_++ == 0) report_->first_migration_start = start_;
  report_->last_migration_end = start_ + ms.base.sim_time;
  report_->moved_records += ms.base.moved_records;
  report_->moved_bytes += ms.base.moved_bytes;
  report_->migration_sim_time += ms.base.sim_time;
  report_->buckets_moved += ms.buckets_moved;
  report_->peak_streams = std::max(report_->peak_streams, ms.peak_streams);
  report_->window_commits += driver_->lifetime_commits() - commits_at_start_;
  report_->window_aborts +=
      driver_->lifetime_migration_aborts() - aborts_at_start_;
  migrator_.reset();
}

}  // namespace chiller::migrate
