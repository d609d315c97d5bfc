// One partition's storage: all table slices plus lock bookkeeping.
#ifndef CHILLER_STORAGE_PARTITION_STORE_H_
#define CHILLER_STORAGE_PARTITION_STORE_H_

#include <compare>
#include <memory>
#include <optional>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "storage/block_arena.h"
#include "storage/table.h"

namespace chiller::storage {

/// Lock mode requested by a transaction operation.
enum class LockMode { kShared, kExclusive };

/// The storage server slice for one partition, exposed to remote engines as
/// RDMA-registered memory (NAM-DB architecture, Section 6). Replica copies
/// are also PartitionStores; they receive applied updates, never locks.
class PartitionStore {
 public:
  PartitionStore(PartitionId id, const std::vector<TableSpec>& schema);

  PartitionId id() const { return id_; }

  Table* table(TableId t);
  const Table* table(TableId t) const;

  /// NO_WAIT lock acquisition on the bucket owning (table, key).
  /// Returns Aborted on conflict. This is exactly what a one-sided CAS
  /// performs at the remote side.
  Status TryLock(const RecordId& rid, LockMode mode);

  /// Releases a lock taken by TryLock. `modified` bumps the version on
  /// exclusive release (OCC validation stamp).
  void Unlock(const RecordId& rid, LockMode mode, bool modified);

  /// Current version stamp of the bucket owning `rid`.
  uint64_t VersionOf(const RecordId& rid) const;

  Record* Find(const RecordId& rid);

  /// Cache hints for a probe of `rid` that an event scheduled now will
  /// make later (a CPU slice or a network hop away). Neither changes any
  /// state, and a wrong or stale hint costs only the load.
  ///
  /// PrefetchBucket loads the line of rid's bucket (its lock word and block
  /// pointer) with a read hint. It computes the address from data fixed at
  /// construction (the table vector and each table's bucket array), so any
  /// domain may call it, including for a store another shard owns; the
  /// read hint keeps it from pulling that shard's line away exclusively.
  void PrefetchBucket(const RecordId& rid) const;
  /// PrefetchRecord reads the bucket's block pointer and loads the block's
  /// first line (Bucket::PrefetchBlock). It dereferences store state, so
  /// only the store's own domain may call it; a batch issues every
  /// PrefetchBucket first, then every PrefetchRecord.
  void PrefetchRecord(const RecordId& rid) const;

  /// Where a record sits in ForEach order: its table, the index of its
  /// bucket, and its slot in Bucket::ForEach order. Ordering positions
  /// ascending reproduces the scan.
  struct ScanPosition {
    TableId table = 0;
    size_t bucket = 0;
    uint32_t slot = 0;
    friend auto operator<=>(const ScanPosition&,
                            const ScanPosition&) = default;
  };
  /// nullopt if `rid` is absent.
  std::optional<ScanPosition> PositionOf(const RecordId& rid) const;

  Status Insert(const RecordId& rid, Record record);
  Status Erase(const RecordId& rid);

  /// Migration path: removes the record and hands it to the caller.
  /// NotFound if absent; FailedPrecondition if the owning bucket is locked
  /// (records may only move while the partition is quiesced).
  StatusOr<Record> ExtractRecord(const RecordId& rid);

  /// Migration path: installs a record extracted elsewhere.
  /// FailedPrecondition if the key already exists or its bucket is locked.
  Status InstallRecord(const RecordId& rid, Record record);

  /// Total records across tables (load metric for partitioning).
  size_t num_records() const;

  /// Number of currently held locks (tests assert it returns to zero).
  size_t locks_held() const { return locks_held_; }

  /// Visits every record in every table: fn(RecordId, Record).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t ti = 0; ti < tables_.size(); ++ti) {
      if (tables_[ti] == nullptr) continue;
      tables_[ti]->ForEach([&](Key k, const Record& r) {
        fn(RecordId{static_cast<TableId>(ti), k}, r);
      });
    }
  }

 private:
  PartitionId id_;
  /// Allocates every table's bucket blocks; declared first so it outlives
  /// the tables, which return their blocks to it as they die.
  BlockArena arena_;
  std::vector<std::unique_ptr<Table>> tables_;
  size_t locks_held_ = 0;
};

}  // namespace chiller::storage

#endif  // CHILLER_STORAGE_PARTITION_STORE_H_
