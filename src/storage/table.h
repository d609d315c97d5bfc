// A table: an array of lock-carrying buckets within one partition.
#ifndef CHILLER_STORAGE_TABLE_H_
#define CHILLER_STORAGE_TABLE_H_

#include <span>

#include "common/status.h"
#include "common/types.h"
#include "storage/block_arena.h"
#include "storage/bucket.h"
#include "storage/record.h"

namespace chiller::storage {

/// Per-partition slice of one logical table. Keys hash onto a fixed array of
/// 16-byte buckets; the bucket's embedded lock word is the locking granule,
/// so two keys colliding into one bucket contend (as in the real system —
/// size buckets_per_partition accordingly). The bucket array is one piece
/// of the process-wide Slab (2 MB pages), with the buckets constructed in
/// place. An empty bucket costs its 16 bytes and nothing more; records live
/// in per-bucket blocks carved from `arena`, the owning store's BlockArena,
/// which must outlive the table. On destruction the table returns every
/// block to the arena and the array to the slab.
class Table {
 public:
  Table(TableSpec spec, BlockArena* arena);
  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;
  ~Table();

  const TableSpec& spec() const { return spec_; }

  /// The bucket that owns `key` (never null).
  Bucket* BucketFor(Key key);
  const Bucket* BucketFor(Key key) const;

  /// Index of the owning bucket — the "remote address" a one-sided op needs.
  size_t BucketIndex(Key key) const;
  Bucket* BucketAt(size_t index);

  /// Looks up a record; does not touch locks.
  Record* Find(Key key);

  /// Inserts a record. Fails with FailedPrecondition on duplicate key.
  Status Insert(Key key, Record record);

  /// Removes a record. Fails with NotFound if absent.
  Status Erase(Key key);

  size_t num_buckets() const { return buckets_.size(); }
  size_t num_records() const { return num_records_; }

  /// Visits every (key, record) in the table: buckets in index order, each
  /// bucket in its Bucket::ForEach order. Deterministic for a given history
  /// of inserts and erases; migration planning relies on it.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Bucket& b : buckets_) b.ForEach(fn);
  }

 private:
  TableSpec spec_;
  BlockArena* arena_;
  std::span<Bucket> buckets_;
  size_t num_records_ = 0;
};

}  // namespace chiller::storage

#endif  // CHILLER_STORAGE_TABLE_H_
