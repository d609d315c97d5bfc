#include "migrate/live_migrator.h"

#include <algorithm>
#include <map>
#include <utility>

#include "common/logging.h"
#include "storage/lock_word.h"

namespace chiller::migrate {

namespace {

/// True when the storage bucket owning `rid` at partition `p` holds no
/// lock word — the extract/install precondition.
bool StorageBucketFree(cc::Cluster* cluster, PartitionId p,
                       const RecordId& rid) {
  storage::Table* table = cluster->primary(p)->table(rid.table);
  return storage::LockWord::IsFree(table->BucketFor(rid.key)->lock_word());
}

}  // namespace

LiveMigrator::LiveMigrator(cc::Cluster* cluster, cc::ReplicationManager* repl,
                           partition::SwappablePartitioner* live,
                           LiveMigratorOptions options)
    : cluster_(cluster),
      repl_(repl),
      live_(live),
      locks_(cluster->bucket_locks()),
      opts_(options) {
  CHILLER_CHECK(opts_.batch_records >= 1);
  CHILLER_CHECK(opts_.retry_interval >= 1);
  obs::MetricsRegistry* reg = cluster_->metrics();
  g_streams_ = reg->GetGauge("migrate.active_streams");
  c_batches_ = reg->GetCounter("migrate.batches");
  c_buckets_moved_ = reg->GetCounter("migrate.buckets_moved");
  c_moved_records_ = reg->GetCounter("migrate.moved_records");
}

Status LiveMigrator::Start(
    MigrationPlan plan, std::unique_ptr<partition::RecordPartitioner> next) {
  if (running_) {
    return Status::FailedPrecondition("a live migration is already running");
  }
  if (locks_->epoch_active()) {
    return Status::FailedPrecondition(
        "another relayout epoch is in flight on this cluster");
  }
  if (live_->in_transition()) {
    return Status::FailedPrecondition(
        "the live partitioner is already mid-transition");
  }
  plan_ = std::move(plan);
  stats_ = LiveMigrationStats{};
  start_time_ = cluster_->sim()->now();
  outstanding_.assign(plan_.units.size(), 0);
  next_unit_ = 0;
  active_units_ = 0;
  target_streams_ = std::max<uint32_t>(1, opts_.streams);
  running_ = true;
  done_ = false;

  live_->BeginTransition(std::move(next), plan_.num_buckets);
  locks_->BeginEpoch(plan_.num_buckets);
  PumpStreams();  // fills the first min(streams, units) slots; an empty
                  // plan closes the epoch right here
  return Status::OK();
}

void LiveMigrator::SetTargetStreams(uint32_t streams) {
  target_streams_ = std::max<uint32_t>(1, streams);
  if (running_) PumpStreams();
}

void LiveMigrator::PumpStreams() {
  if (pumping_) return;
  pumping_ = true;
  while (running_ && active_units_ < target_streams_ &&
         next_unit_ < plan_.units.size()) {
    ++active_units_;
    g_streams_->Set(static_cast<int64_t>(active_units_));
    stats_.peak_streams = std::max(stats_.peak_streams,
                                   static_cast<uint32_t>(active_units_));
    // BeginUnit can finish synchronously (all planned moves vanished) and
    // re-enter PumpStreams; the guard makes that a no-op and the loop
    // condition re-reads the decremented active_units_.
    BeginUnit(next_unit_++);
  }
  pumping_ = false;
  if (running_ && active_units_ == 0 && next_unit_ == plan_.units.size()) {
    FinishAll();
  }
}

void LiveMigrator::BeginUnit(size_t u) {
  locks_->Acquire(plan_.units[u].bucket);
  LaunchBatches(u);
}

void LiveMigrator::LaunchBatches(size_t u) {
  const MoveUnit& unit = plan_.units[u];

  // Per-(from, to) grouping in deterministic pair order, split into
  // batches of at most batch_records. Batch bytes come from the records'
  // current images; they are a transfer-cost estimate — the authoritative
  // images are extracted at arrival, inside the atomic move event.
  std::map<std::pair<PartitionId, PartitionId>, std::vector<RecordMove>>
      groups;
  for (const RecordMove& mv : unit.moves) {
    groups[{mv.from, mv.to}].push_back(mv);
  }

  std::vector<std::shared_ptr<Batch>> batches;
  for (auto& [pair, moves] : groups) {
    (void)pair;
    for (size_t begin = 0; begin < moves.size();
         begin += opts_.batch_records) {
      const size_t end =
          std::min(moves.size(), begin + opts_.batch_records);
      auto batch = std::make_shared<Batch>();
      batch->unit_index = u;
      batch->moves.assign(moves.begin() + static_cast<ptrdiff_t>(begin),
                          moves.begin() + static_cast<ptrdiff_t>(end));
      batch->bytes = cc::kMigrationBatchHeaderBytes;
      for (const RecordMove& mv : batch->moves) {
        const storage::Record* rec = cluster_->primary(mv.from)->Find(mv.rid);
        if (rec != nullptr) {
          batch->bytes += cc::kMigrationPerRecordOverheadBytes +
                          rec->wire_bytes();
        }
      }
      batches.push_back(std::move(batch));
    }
  }

  if (batches.empty()) {
    // Every planned move of this bucket vanished before launch.
    stats_.skipped_records += unit.moves.size();
    FinishUnit(u);
    return;
  }

  outstanding_[u] = batches.size();
  for (auto& batch : batches) {
    const PartitionId from = batch->moves.front().from;
    const PartitionId to = batch->moves.front().to;
    const EngineId from_engine = cluster_->topology().EngineOfPartition(from);
    const EngineId to_engine = cluster_->topology().EngineOfPartition(to);
    const SimTime install_cost =
        cluster_->costs().replica_apply *
        static_cast<SimTime>(batch->moves.size());
    ++stats_.batches;
    c_batches_->AddControl();
    // The transfer itself rides the normal rpc path for cost realism, but
    // the completion touches both partitions' stores, the bucket-lock
    // table and the migrator's own state — control-plane work. Hop there
    // on arrival; the control event lands at the next window boundary,
    // where every engine is paused.
    cluster_->rpc()->Send(
        from_engine, to_engine, batch->bytes, install_cost, [this, batch]() {
          cluster_->sim()->ScheduleControl(
              0, [this, batch]() { TryCompleteBatch(batch); });
        });
  }
}

void LiveMigrator::TryCompleteBatch(std::shared_ptr<Batch> batch) {
  // The atomic move below must not slide records out from under a held
  // storage-bucket lock. Wait for every involved lock word (source and
  // target side) to be free, rechecking on a short interval. The
  // relayout-bucket gate keeps *this* bucket's keys from taking new
  // locks, but keys of other relayout buckets sharing a storage bucket
  // can keep re-locking it — after freeze_after_retries rechecks the
  // batch escalates and freezes the exact storage buckets it needs in
  // the BucketLockTable (new lockers on them abort like any
  // migration-blocked access), which makes the drain terminate.
  bool all_free = true;
  for (const RecordMove& mv : batch->moves) {
    if (!StorageBucketFree(cluster_, mv.from, mv.rid) ||
        !StorageBucketFree(cluster_, mv.to, mv.rid)) {
      all_free = false;
      break;
    }
  }
  if (!all_free) {
    ++stats_.lock_retries;
    // >= so a batch whose freeze was beaten to a bucket by a sibling batch
    // (and lifted when that sibling completed) re-escalates on its next
    // recheck; the IsStorageBucketFrozen guard keeps ownership exclusive.
    if (++batch->retries >= opts_.freeze_after_retries) {
      bool froze_any = false;
      for (const RecordMove& mv : batch->moves) {
        for (const PartitionId p : {mv.from, mv.to}) {
          const BucketLockTable::StorageBucketKey key{
              p, mv.rid.table,
              cluster_->primary(p)->table(mv.rid.table)
                  ->BucketIndex(mv.rid.key)};
          if (!locks_->IsStorageBucketFrozen(key)) {
            locks_->FreezeStorageBucket(key);
            batch->frozen.push_back(key);
            froze_any = true;
          }
        }
      }
      if (froze_any) ++stats_.freezes;
    }
    cluster_->sim()->ScheduleControl(
        opts_.retry_interval, [this, batch]() { TryCompleteBatch(batch); });
    return;
  }

  // Atomic move: extract + install every record of the batch inside this
  // single control event (every engine paused). No other event can observe
  // the intermediate state, so conservation and single residency hold at
  // every instant.
  const PartitionId from = batch->moves.front().from;
  const PartitionId to = batch->moves.front().to;
  std::vector<cc::ReplUpdate> puts;
  std::vector<cc::ReplUpdate> erases;
  puts.reserve(batch->moves.size());
  erases.reserve(batch->moves.size());
  // Bytes are accounted from the records actually extracted; batch->bytes
  // was only the launch-time transfer-cost estimate and may include
  // records that vanished since.
  size_t actual_bytes = cc::kMigrationBatchHeaderBytes;
  for (const RecordMove& mv : batch->moves) {
    auto rec = cluster_->ExtractRecord(mv.rid, mv.from);
    if (!rec.ok()) {
      // Deleted since the plan was diffed; nothing to move.
      ++stats_.skipped_records;
      continue;
    }
    const Status st = cluster_->InstallRecord(mv.rid, mv.to, rec.value());
    CHILLER_CHECK(st.ok()) << st.ToString();
    ++stats_.base.moved_records;
    c_moved_records_->AddControl();
    actual_bytes +=
        cc::kMigrationPerRecordOverheadBytes + rec.value().wire_bytes();
    puts.push_back(cc::ReplUpdate{.kind = cc::ReplUpdate::Kind::kPut,
                                  .rid = mv.rid,
                                  .image = std::move(rec).value()});
    erases.push_back(cc::ReplUpdate{.kind = cc::ReplUpdate::Kind::kErase,
                                    .rid = mv.rid,
                                    .image = storage::Record()});
  }
  stats_.base.moved_bytes += actual_bytes;

  for (const BucketLockTable::StorageBucketKey& key : batch->frozen) {
    locks_->UnfreezeStorageBucket(key);
  }
  batch->frozen.clear();

  const size_t u = batch->unit_index;
  if (!puts.empty()) {
    const EngineId from_engine = cluster_->topology().EngineOfPartition(from);
    const EngineId to_engine = cluster_->topology().EngineOfPartition(to);
    // The new primary streams the images to its replicas; the old
    // primary's replicas drop their stale copies. Sourcing the erases at
    // the old primary's engine keeps them FIFO-behind any commit
    // replication still in flight from pre-lock transactions.
    outstanding_[u] += 2;
    // The acks land in the ack engines' domains; OnUnitEvent mutates
    // migrator state and may flip the bucket, so bounce it to control.
    repl_->Replicate(to_engine, to, std::move(puts), to_engine, [this, u]() {
      cluster_->sim()->ScheduleControl(0, [this, u]() { OnUnitEvent(u); });
    });
    repl_->Replicate(from_engine, from, std::move(erases), from_engine,
                     [this, u]() {
                       cluster_->sim()->ScheduleControl(
                           0, [this, u]() { OnUnitEvent(u); });
                     });
  }
  OnUnitEvent(u);  // the batch itself has landed
}

void LiveMigrator::OnUnitEvent(size_t u) {
  CHILLER_CHECK(outstanding_[u] > 0);
  if (--outstanding_[u] == 0) FinishUnit(u);
}

void LiveMigrator::FinishUnit(size_t u) {
  // Flip + unlock in the same event as the last settle: a transaction
  // retrying after a migration abort resolves placement against the new
  // layout the moment the bucket reopens.
  live_->FlipBucket(plan_.units[u].bucket);
  locks_->Release(plan_.units[u].bucket);
  ++stats_.buckets_moved;
  c_buckets_moved_->AddControl();
  CHILLER_CHECK(active_units_ > 0);
  --active_units_;
  g_streams_->Set(static_cast<int64_t>(active_units_));
  // Refill the freed slot from the plan cursor (or close the epoch if this
  // was the last unit). With target_streams_ == 1 this is exactly the old
  // sequential BeginUnit(u + 1) walk, event for event.
  PumpStreams();
}

void LiveMigrator::FinishAll() {
  live_->FinishTransition();
  locks_->EndEpoch();
  stats_.base.sim_time = cluster_->sim()->now() - start_time_;
  running_ = false;
  done_ = true;
}

}  // namespace chiller::migrate
