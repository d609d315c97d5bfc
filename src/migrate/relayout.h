// Relayout buckets: the unit of incremental live migration.
//
// A relayout epoch partitions the record-id space into `num_buckets`
// hash buckets (independent of the storage-level hash buckets inside a
// Table). The LiveMigrator streams up to k relayout buckets concurrently;
// the BucketLockTable below is the coordination point between the migrator
// and the execution protocols: while a bucket is in flight, any transaction
// access landing in it aborts with the dedicated migration abort class
// (txn::Transaction::blocked_by_migration) and retries through the load
// model's normal backoff, while traffic on every other bucket flows freely.
//
// This header is deliberately leaf-level (common/ only): cc::Cluster owns
// the table, partition::SwappablePartitioner shares the same bucket space
// for its per-bucket layout indirection, and src/migrate builds the plan
// and the mover on top.
#ifndef CHILLER_MIGRATE_RELAYOUT_H_
#define CHILLER_MIGRATE_RELAYOUT_H_

#include <set>
#include <tuple>
#include <unordered_set>

#include "common/logging.h"
#include "common/types.h"

namespace chiller::migrate {

/// Index of a relayout bucket within one epoch's bucket space.
using BucketId = uint32_t;

/// The record's relayout bucket: a pure function of (rid, num_buckets), so
/// the plan, the lock table, and the partitioner indirection always agree.
inline BucketId RelayoutBucketOf(const RecordId& rid, uint32_t num_buckets) {
  CHILLER_DCHECK(num_buckets > 0);
  return static_cast<BucketId>(RecordIdHash{}(rid) % num_buckets);
}

/// Bucket-granular migration locks, shared between the LiveMigrator (the
/// only writer) and the execution protocols (readers, via
/// cc::Cluster::bucket_locks). Not a mutual-exclusion lock in the thread
/// sense — the simulator is single-threaded — but an abort gate: a locked
/// bucket makes every transaction access in it fail its attempt.
class BucketLockTable {
 public:
  /// Opens a relayout epoch over `num_buckets` buckets. One epoch at a
  /// time: the migrator serializes relayouts.
  void BeginEpoch(uint32_t num_buckets) {
    CHILLER_CHECK(!active_) << "a relayout epoch is already in flight";
    CHILLER_CHECK(num_buckets > 0);
    num_buckets_ = num_buckets;
    active_ = true;
    ever_active_ = true;
  }

  /// Closes the epoch; every bucket must have been released and every
  /// escalated storage-bucket freeze lifted.
  void EndEpoch() {
    CHILLER_CHECK(active_) << "no relayout epoch to end";
    CHILLER_CHECK(locked_.empty()) << "epoch ended with buckets still locked";
    CHILLER_CHECK(frozen_.empty()) << "epoch ended with frozen storage buckets";
    active_ = false;
  }

  bool epoch_active() const { return active_; }

  /// True once any relayout epoch — quiesced or live — has opened, i.e.
  /// once the cluster's layout may have been mutated. Protocols use this
  /// as a zero-cost gate: scenarios on a frozen layout skip the per-access
  /// migration checks entirely (byte-identical legacy behavior), and
  /// layout-assumption violations (e.g. Chiller's co-location contract)
  /// degrade gracefully instead of crashing only when this is set.
  bool ever_active() const { return ever_active_; }

  /// Marks bucket `b` in flight. Multi-bucket contract: the migrator holds
  /// up to its stream width (target_streams) concurrently; each bucket is
  /// acquired at most once per epoch (double-Acquire is a CHECK failure),
  /// buckets lock and release in any interleaving, and storage-bucket
  /// freezes are independent of bucket locks (a freeze may outlive or
  /// precede any particular bucket's release, as long as every freeze is
  /// lifted before EndEpoch). IsMigrating answers over the union of all
  /// locked buckets.
  void Acquire(BucketId b) {
    CHILLER_CHECK(active_) << "Acquire outside a relayout epoch";
    CHILLER_CHECK(b < num_buckets_);
    CHILLER_CHECK(locked_.insert(b).second) << "bucket already locked";
  }

  void Release(BucketId b) {
    CHILLER_CHECK(locked_.erase(b) == 1) << "bucket not locked";
  }

  /// The protocol-side check: is `rid`'s relayout bucket in flight?
  bool IsMigrating(const RecordId& rid) const {
    if (locked_.empty()) return false;
    return locked_.contains(RelayoutBucketOf(rid, num_buckets_));
  }

  size_t locked_buckets() const { return locked_.size(); }

  // --- storage-bucket freeze escalation ------------------------------------
  // The relayout-bucket gate cannot drain *storage*-bucket lock words:
  // keys from other relayout buckets may share a storage bucket with a
  // moving record and keep re-locking it. When a batch has waited too
  // long, the migrator freezes the specific storage buckets it needs —
  // new lockers on them abort like migration-blocked accesses, existing
  // holders finish, and the batch is guaranteed to observe a free
  // instant. Empty in the common case, so the protocol-side check is one
  // branch.

  /// One storage bucket: (partition, table, bucket index within table).
  using StorageBucketKey = std::tuple<PartitionId, TableId, size_t>;

  void FreezeStorageBucket(const StorageBucketKey& key) {
    CHILLER_CHECK(active_) << "freeze outside a relayout epoch";
    frozen_.insert(key);
  }
  void UnfreezeStorageBucket(const StorageBucketKey& key) {
    frozen_.erase(key);
  }
  bool HasFrozenStorageBuckets() const { return !frozen_.empty(); }
  bool IsStorageBucketFrozen(const StorageBucketKey& key) const {
    return frozen_.contains(key);
  }

 private:
  uint32_t num_buckets_ = 0;
  bool active_ = false;
  bool ever_active_ = false;
  std::unordered_set<BucketId> locked_;
  std::set<StorageBucketKey> frozen_;
};

}  // namespace chiller::migrate

#endif  // CHILLER_MIGRATE_RELAYOUT_H_
