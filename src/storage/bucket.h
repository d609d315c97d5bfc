// Hash bucket with an embedded lock word (NAM-DB style, paper Section 6).
#ifndef CHILLER_STORAGE_BUCKET_H_
#define CHILLER_STORAGE_BUCKET_H_

#include <cstdint>
#include <optional>

#include "common/logging.h"
#include "common/types.h"
#include "storage/block_arena.h"
#include "storage/lock_word.h"
#include "storage/record.h"

namespace chiller::storage {

/// One hash bucket: a small set of records sharing a single lock word.
/// "Buckets are locked when any of their records are being accessed, and the
/// lock remains until the transaction commits or aborts" (Section 6).
///
/// Layout (16 bytes): the lock word plus a pointer to a block holding the
/// entry count, its capacity and the (key, record) entries. The pointer is
/// null while the bucket is empty; the block doubles when full. Overflow
/// past the first entry models an overflow bucket chained off the primary,
/// sharing its lock. Blocks come from the owning store's BlockArena, which
/// the caller passes to every call that allocates or frees one: a
/// one-entry block is one cache line, so a probe of a one-record bucket
/// reads the lock word's line and one more. A bucket does not free its
/// block on destruction; its owner (Table) calls Clear first. Buckets never
/// move: a table constructs its array in place.
///
/// Order invariant: Insert appends, and Erase moves the last entry into the
/// hole. ForEach visits entries in that order, which migration planning
/// depends on (MigrationPlan::Diff orders its moves by SlotOf).
class Bucket {
 public:
  Bucket() : lock_(LockWord::MakeFree(0)) {}
  Bucket(const Bucket&) = delete;
  Bucket& operator=(const Bucket&) = delete;
  ~Bucket() { CHILLER_DCHECK(block_ == nullptr) << "bucket not cleared"; }

  /// The raw lock word; remote engines CAS this via one-sided RDMA.
  uint64_t lock_word() const { return lock_; }
  uint64_t* mutable_lock_word() { return &lock_; }

  bool TryLockShared() { return LockWord::TryAcquireShared(&lock_); }
  bool TryLockExclusive() { return LockWord::TryAcquireExclusive(&lock_); }
  void UnlockShared() { LockWord::ReleaseShared(&lock_); }
  void UnlockExclusive(bool modified) {
    LockWord::ReleaseExclusive(&lock_, modified);
  }
  uint64_t version() const { return LockWord::Version(lock_); }

  /// Returns the record stored under `key`, or nullptr. The pointer is
  /// invalidated by the next Insert or Erase on this bucket.
  Record* Find(Key key);
  const Record* Find(Key key) const;
  /// Index of `key` in ForEach order, or nullopt if absent.
  std::optional<uint32_t> SlotOf(Key key) const;

  /// Appends a new record; returns false if the key already exists.
  bool Insert(BlockArena* arena, Key key, Record record);

  /// Removes `key`, moving the last entry into its slot; returns true if it
  /// was present.
  bool Erase(BlockArena* arena, Key key);

  /// Destroys every entry and returns the block to `arena`.
  void Clear(BlockArena* arena);

  /// Bytes a block of `cap` entries needs before the arena rounds it up.
  static constexpr size_t BlockBytes(uint32_t cap) {
    return sizeof(Block) + cap * sizeof(Entry);
  }

  size_t num_records() const { return block_ == nullptr ? 0 : block_->size; }

  /// Cache hint: starts loading the first line of the block with write
  /// intent. Reads the block pointer, so only the owning store's domain
  /// may call it (PartitionStore::PrefetchRecord). Changes nothing.
  void PrefetchBlock() const {
    if (block_ != nullptr) {
      __builtin_prefetch(block_, /*rw=*/1, /*locality=*/3);
    }
  }

  /// Visits every (key, record) in the bucket, in the order above.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (block_ == nullptr) return;
    const Entry* e = block_->entries();
    for (uint32_t i = 0; i < block_->size; ++i) fn(e[i].key, e[i].record);
  }

 private:
  struct Entry {
    Key key;
    Record record;
  };
  /// Block header; `cap` entries follow it in the same allocation.
  struct Block {
    uint32_t size;
    uint32_t cap;
    Entry* entries() { return reinterpret_cast<Entry*>(this + 1); }
    const Entry* entries() const {
      return reinterpret_cast<const Entry*>(this + 1);
    }
  };
  static_assert(sizeof(Block) % alignof(Entry) == 0,
                "entries must start aligned right after the header");

  static Block* Allocate(BlockArena* arena, uint32_t cap);
  /// Destroys the block's entries and frees it.
  static void Free(BlockArena* arena, Block* block);

  uint64_t lock_;
  Block* block_ = nullptr;
};

}  // namespace chiller::storage

#endif  // CHILLER_STORAGE_BUCKET_H_
