#include "storage/table.h"

#include <memory>
#include <utility>

#include "common/logging.h"
#include "storage/slab.h"

namespace chiller::storage {

namespace {
// SplitMix64 finalizer: spreads sequential keys across buckets.
size_t HashKey(Key key) {
  uint64_t x = key;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return static_cast<size_t>(x);
}
}  // namespace

Table::Table(TableSpec spec, BlockArena* arena)
    : spec_(std::move(spec)), arena_(arena) {
  CHILLER_CHECK(spec_.buckets_per_partition > 0);
  CHILLER_CHECK(arena_ != nullptr);
  const size_t n = spec_.buckets_per_partition;
  buckets_ = {static_cast<Bucket*>(Slab::Get().Allocate(n * sizeof(Bucket))),
              n};
  std::uninitialized_default_construct(buckets_.begin(), buckets_.end());
}

Table::~Table() {
  for (Bucket& b : buckets_) b.Clear(arena_);
  std::destroy(buckets_.begin(), buckets_.end());
  Slab::Get().Free(buckets_.data(), buckets_.size_bytes());
}

size_t Table::BucketIndex(Key key) const {
  return HashKey(key) % buckets_.size();
}

Bucket* Table::BucketFor(Key key) { return &buckets_[BucketIndex(key)]; }

const Bucket* Table::BucketFor(Key key) const {
  return &buckets_[BucketIndex(key)];
}

Bucket* Table::BucketAt(size_t index) {
  CHILLER_DCHECK(index < buckets_.size());
  return &buckets_[index];
}

Record* Table::Find(Key key) { return BucketFor(key)->Find(key); }

Status Table::Insert(Key key, Record record) {
  if (!BucketFor(key)->Insert(arena_, key, std::move(record))) {
    return Status::FailedPrecondition("duplicate key");
  }
  ++num_records_;
  return Status::OK();
}

Status Table::Erase(Key key) {
  if (!BucketFor(key)->Erase(arena_, key)) return Status::NotFound();
  --num_records_;
  return Status::OK();
}

}  // namespace chiller::storage
