// LiveMigrator: the record mover behind every relayout — incremental,
// per-bucket, and safe to run concurrently with transaction traffic.
//
// It streams a MigrationPlan through up to `streams` relayout buckets
// concurrently (k = 1 degenerates to the classic one-bucket-at-a-time
// walk, event for event). The runner's quiesced migrate phase is the
// degenerate case: a one-bucket plan run with the driver stopped, so the
// whole relayout is one stop-the-world pause. Each in-flight bucket
// advances independently through the same pipeline:
//
//   1. lock the bucket in the cluster's BucketLockTable — transactions
//      touching it abort with the dedicated migration abort class and
//      retry through their load model's backoff; all other traffic flows;
//   2. ship the bucket's moves as per-(from,to) batches over the RPC layer,
//      each paying its simulated transfer + install cost; batches of
//      different buckets overlap in flight;
//   3. at each batch's arrival, atomically extract + install its records —
//      a single simulator event, so record conservation and single
//      residency hold at every observable instant. Storage-bucket lock
//      words still held by transactions that got in before the bucket lock
//      delay the batch (retried on a short interval) until they drain;
//   4. resync replicas (erases stream from the old primary's engine, so
//      per-queue-pair FIFO ordering keeps them behind any still-in-flight
//      commit replication; puts stream from the new primary's engine);
//   5. once every batch and replica ack of the bucket has settled, flip the
//      bucket's entry in the SwappablePartitioner and release its lock in
//      the same event — routing and physical placement never disagree.
//      That unlock event also pulls the next unstarted bucket into the
//      freed stream slot.
//
// Escalation (storage-bucket freezes) is per batch and therefore per
// stream: concurrent buckets never share a freeze — the
// IsStorageBucketFrozen guard keeps ownership exclusive even when two
// streams collide on the same storage bucket.
//
// The stream width is live: SetTargetStreams(k) widens immediately (idle
// slots fill from the plan cursor in the same control event) and narrows
// by attrition (in-flight buckets finish; no new ones start until the
// width is below target). The MigrationGovernor drives this knob each
// controller epoch against the foreground SLO.
//
// Every migrator mutation runs as a control-plane event with the canonical
// (time, domain, origin, seq) order, so k > 1 changes wall-clock shape
// only through the simulated overlap — results stay byte-identical for
// any shard count.
//
// When the last unit finishes, the partitioner transition collapses
// (buckets without placement diffs flip implicitly) and the epoch closes.
//
// Assumption inherited from the layout pipeline: records without an
// explicit lookup entry place identically under the outgoing and incoming
// layouts (both fall back to the same hash), so keys inserted while the
// plan executes never strand. Records deleted after planning are skipped
// (counted in stats().skipped_records).
#ifndef CHILLER_MIGRATE_LIVE_MIGRATOR_H_
#define CHILLER_MIGRATE_LIVE_MIGRATOR_H_

#include <memory>
#include <vector>

#include "cc/cluster.h"
#include "cc/migration.h"
#include "cc/replication.h"
#include "common/status.h"
#include "migrate/migration_plan.h"
#include "partition/lookup_table.h"

namespace chiller::migrate {

struct LiveMigratorOptions {
  /// Records per RPC batch; a (from, to) group larger than this splits
  /// into several batches, each paying its own header + transfer.
  uint32_t batch_records = 128;
  /// Recheck interval while a batch waits for storage-bucket lock words
  /// (transactions that acquired them before the bucket lock) to drain.
  SimTime retry_interval = 2 * kMicrosecond;
  /// After this many rechecks the batch escalates: it freezes the exact
  /// storage buckets it needs in the BucketLockTable, so colliding keys
  /// from other relayout buckets stop re-locking them and the drain is
  /// guaranteed to terminate (the relayout-bucket gate alone cannot stop
  /// those keys).
  uint32_t freeze_after_retries = 16;
  /// Relayout buckets streamed concurrently (k). 1 reproduces the legacy
  /// sequential walk event for event; SetTargetStreams can retune a
  /// running relayout (the governor's knob).
  uint32_t streams = 1;
};

/// Accounting beyond the shared MigrationStats shape.
struct LiveMigrationStats {
  cc::MigrationStats base;       ///< moved records/bytes + in-flight span
  uint64_t batches = 0;          ///< RPC batches shipped
  uint64_t lock_retries = 0;     ///< batch completions delayed by held locks
  uint64_t freezes = 0;          ///< batches that escalated to a freeze
  uint64_t skipped_records = 0;  ///< planned moves whose record vanished
  uint32_t buckets_moved = 0;    ///< units completed (locked -> flipped)
  uint32_t peak_streams = 0;     ///< max buckets concurrently in flight
};

/// One live relayout execution. Drive it by advancing the cluster's
/// simulator (e.g. cc::Driver::Advance) after Start(): all migrator work
/// runs as simulator events interleaved with transaction traffic. One
/// relayout at a time per cluster (the BucketLockTable enforces it),
/// with up to target_streams() buckets of that relayout in flight at once.
class LiveMigrator {
 public:
  LiveMigrator(cc::Cluster* cluster, cc::ReplicationManager* repl,
               partition::SwappablePartitioner* live,
               LiveMigratorOptions options = {});

  /// Stages `next` as the incoming layout (per-bucket indirection on
  /// `live`), opens the lock-table epoch, and schedules the first
  /// min(streams, units) buckets. `plan` must have been diffed against
  /// `next` over the same bucket count. FailedPrecondition if a relayout
  /// is already in flight.
  Status Start(MigrationPlan plan,
               std::unique_ptr<partition::RecordPartitioner> next);

  /// Retunes the concurrent stream width mid-relayout. Widening takes
  /// effect immediately (idle slots fill in this call); narrowing decays
  /// as in-flight buckets finish. Clamped to >= 1. Control-plane only —
  /// call it from outside the simulation or from a control event, like
  /// every other migrator entry point.
  void SetTargetStreams(uint32_t streams);
  uint32_t target_streams() const { return target_streams_; }
  /// Buckets currently locked + in flight.
  uint32_t active_streams() const {
    return static_cast<uint32_t>(active_units_);
  }

  /// True once every unit has flipped and the epoch is closed.
  bool done() const { return done_; }

  const LiveMigrationStats& stats() const { return stats_; }

 private:
  struct Batch {
    size_t unit_index = 0;
    std::vector<RecordMove> moves;
    size_t bytes = 0;  ///< launch-time transfer-cost estimate
    uint32_t retries = 0;
    /// Storage buckets this batch froze (escalated drain); lifted when
    /// the batch completes.
    std::vector<BucketLockTable::StorageBucketKey> frozen;
  };

  /// Starts unstarted units until the width reaches target_streams_ (or
  /// the plan cursor runs out), then closes the epoch when nothing is
  /// left. Reentrant-safe: a unit whose batches all vanished finishes
  /// synchronously inside BeginUnit and re-enters here.
  void PumpStreams();
  void BeginUnit(size_t u);
  void LaunchBatches(size_t u);
  void TryCompleteBatch(std::shared_ptr<Batch> batch);
  void OnUnitEvent(size_t u);  ///< one outstanding completion arrived
  void FinishUnit(size_t u);
  void FinishAll();

  cc::Cluster* cluster_;
  cc::ReplicationManager* repl_;
  partition::SwappablePartitioner* live_;
  BucketLockTable* locks_;
  LiveMigratorOptions opts_;

  MigrationPlan plan_;
  LiveMigrationStats stats_;
  // Registry mirrors of the relayout's control-plane accounting, so the
  // trace timeline's slice snapshots can show migration progress next to
  // commits ("migrate.*"). The per-run LiveMigrationStats stays the source
  // of the report fields.
  obs::MetricsRegistry::Gauge* g_streams_ = nullptr;
  obs::MetricsRegistry::Counter* c_batches_ = nullptr;
  obs::MetricsRegistry::Counter* c_buckets_moved_ = nullptr;
  obs::MetricsRegistry::Counter* c_moved_records_ = nullptr;
  SimTime start_time_ = 0;
  /// Per-unit unmoved batches + unacked replica streams; indexed like
  /// plan_.units so concurrent buckets never share a counter.
  std::vector<size_t> outstanding_;
  size_t next_unit_ = 0;    ///< plan cursor: first unstarted unit
  size_t active_units_ = 0; ///< units locked + in flight right now
  uint32_t target_streams_ = 1;
  bool pumping_ = false;    ///< PumpStreams reentrancy guard
  bool running_ = false;
  bool done_ = false;
};

}  // namespace chiller::migrate

#endif  // CHILLER_MIGRATE_LIVE_MIGRATOR_H_
