// Unit tests for the storage substrate: lock words, buckets, tables, stores.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "storage/bucket.h"
#include "storage/lock_word.h"
#include "storage/partition_store.h"
#include "storage/record.h"
#include "storage/table.h"

namespace chiller::storage {
namespace {

TEST(LockWordTest, FreshWordIsFree) {
  uint64_t w = LockWord::MakeFree(0);
  EXPECT_TRUE(LockWord::IsFree(w));
  EXPECT_FALSE(LockWord::IsExclusive(w));
  EXPECT_EQ(LockWord::SharedCount(w), 0u);
  EXPECT_EQ(LockWord::Version(w), 0u);
}

TEST(LockWordTest, SharedAcquireRelease) {
  uint64_t w = LockWord::MakeFree(5);
  EXPECT_TRUE(LockWord::TryAcquireShared(&w));
  EXPECT_TRUE(LockWord::TryAcquireShared(&w));
  EXPECT_EQ(LockWord::SharedCount(w), 2u);
  EXPECT_EQ(LockWord::Version(w), 5u);
  LockWord::ReleaseShared(&w);
  LockWord::ReleaseShared(&w);
  EXPECT_TRUE(LockWord::IsFree(w));
  EXPECT_EQ(LockWord::Version(w), 5u);  // shared release never bumps
}

TEST(LockWordTest, ExclusiveBlocksEverything) {
  uint64_t w = LockWord::MakeFree(0);
  EXPECT_TRUE(LockWord::TryAcquireExclusive(&w));
  EXPECT_FALSE(LockWord::TryAcquireExclusive(&w));
  EXPECT_FALSE(LockWord::TryAcquireShared(&w));
}

TEST(LockWordTest, SharedBlocksExclusive) {
  uint64_t w = LockWord::MakeFree(0);
  EXPECT_TRUE(LockWord::TryAcquireShared(&w));
  EXPECT_FALSE(LockWord::TryAcquireExclusive(&w));
}

TEST(LockWordTest, VersionBumpOnModifiedRelease) {
  uint64_t w = LockWord::MakeFree(7);
  ASSERT_TRUE(LockWord::TryAcquireExclusive(&w));
  LockWord::ReleaseExclusive(&w, /*modified=*/true);
  EXPECT_EQ(LockWord::Version(w), 8u);
  ASSERT_TRUE(LockWord::TryAcquireExclusive(&w));
  LockWord::ReleaseExclusive(&w, /*modified=*/false);
  EXPECT_EQ(LockWord::Version(w), 8u);
}

TEST(LockWordTest, VersionWrapsAt48Bits) {
  uint64_t w = LockWord::MakeFree(LockWord::kVersionMask);
  ASSERT_TRUE(LockWord::TryAcquireExclusive(&w));
  LockWord::ReleaseExclusive(&w, true);
  EXPECT_EQ(LockWord::Version(w), 0u);
  EXPECT_TRUE(LockWord::IsFree(w));
}

TEST(LockWordTest, ManySharedHolders) {
  uint64_t w = LockWord::MakeFree(0);
  for (int i = 0; i < 1000; ++i) ASSERT_TRUE(LockWord::TryAcquireShared(&w));
  EXPECT_EQ(LockWord::SharedCount(w), 1000u);
  for (int i = 0; i < 1000; ++i) LockWord::ReleaseShared(&w);
  EXPECT_TRUE(LockWord::IsFree(w));
}

TEST(RecordTest, FieldsRoundTrip) {
  Record r(4);
  r.Set(0, 42);
  r.Set(3, -7);
  r.Add(0, 8);
  EXPECT_EQ(r.Get(0), 50);
  EXPECT_EQ(r.Get(3), -7);
  EXPECT_EQ(r.num_fields(), 4u);
  EXPECT_EQ(r.wire_bytes(), 32u);
}

TEST(RecordTest, ExplicitWireSize) {
  Record r(2, 300);
  EXPECT_EQ(r.wire_bytes(), 300u);
}

// The compact layouts are the point of the storage types: 16-byte buckets
// and 40-byte records keep the per-store arrays small.
static_assert(sizeof(Bucket) == 16);
static_assert(sizeof(Record) == 40);

Record Numbered(size_t num_fields, int64_t base) {
  Record r(num_fields);
  for (size_t i = 0; i < num_fields; ++i) {
    r.Set(i, base + static_cast<int64_t>(i));
  }
  return r;
}

TEST(RecordTest, DefaultIsEmpty) {
  Record r;
  EXPECT_EQ(r.num_fields(), 0u);
  EXPECT_EQ(r.wire_bytes(), 0u);
  EXPECT_TRUE(r.fields().empty());
  EXPECT_EQ(r, Record());
}

TEST(RecordTest, EqualityComparesFieldsAndWireSize) {
  EXPECT_EQ(Numbered(3, 10), Numbered(3, 10));
  EXPECT_NE(Numbered(3, 10), Numbered(3, 11));
  EXPECT_NE(Numbered(3, 10), Numbered(4, 10));
  EXPECT_NE(Record(2, 100), Record(2, 200));
  EXPECT_EQ(Numbered(8, 1), Numbered(8, 1));
  EXPECT_NE(Numbered(8, 1), Numbered(8, 2));
}

// Inline (<= kInlineFields) and spilled (8 fields, as YCSB) records must
// behave identically under every copy and move.
class RecordCopyMoveTest : public ::testing::TestWithParam<size_t> {};

TEST_P(RecordCopyMoveTest, CopyIsDeepAndEqual) {
  const size_t n = GetParam();
  Record a = Numbered(n, 100);
  Record b(a);
  EXPECT_EQ(a, b);
  b.Set(0, -1);
  EXPECT_EQ(a.Get(0), 100);  // no shared storage
  EXPECT_NE(a, b);
}

TEST_P(RecordCopyMoveTest, MoveTransfersAndEmptiesSource) {
  const size_t n = GetParam();
  Record a = Numbered(n, 100);
  Record b(std::move(a));
  EXPECT_EQ(b, Numbered(n, 100));
  EXPECT_EQ(a.num_fields(), 0u);  // NOLINT(bugprone-use-after-move)
  Record c;
  c = std::move(b);
  EXPECT_EQ(c, Numbered(n, 100));
  EXPECT_EQ(b.num_fields(), 0u);  // NOLINT(bugprone-use-after-move)
}

TEST_P(RecordCopyMoveTest, AssignAcrossShapes) {
  const size_t n = GetParam();
  for (size_t other : {size_t{1}, size_t{4}, size_t{8}, n}) {
    Record dst = Numbered(other, 7);
    const Record src = Numbered(n, 100);
    dst = src;
    EXPECT_EQ(dst, src) << other << " <- " << n;
    Record moved_into = Numbered(other, 7);
    moved_into = Record(src);
    EXPECT_EQ(moved_into, src) << other << " <- " << n;
  }
  Record self = Numbered(n, 5);
  const Record& alias = self;
  self = alias;
  EXPECT_EQ(self, Numbered(n, 5));
}

INSTANTIATE_TEST_SUITE_P(InlineAndSpilled, RecordCopyMoveTest,
                         ::testing::Values(size_t{1}, size_t{4}, size_t{8}));

std::vector<Key> KeysInOrder(const Bucket& b) {
  std::vector<Key> keys;
  b.ForEach([&](Key k, const Record&) { keys.push_back(k); });
  return keys;
}

TEST(BucketTest, OrderMatchesAppendAndSwapWithLastErase) {
  // The order a std::vector gives with push_back and erase-by-moving-the-
  // last-entry-into-the-hole; migration batches depend on it.
  Bucket b;
  for (Key k = 1; k <= 6; ++k) {  // grows past 4 entries
    ASSERT_TRUE(b.Insert(k, Numbered(2, static_cast<int64_t>(k) * 10)));
  }
  EXPECT_EQ(KeysInOrder(b), (std::vector<Key>{1, 2, 3, 4, 5, 6}));
  ASSERT_TRUE(b.Erase(3));  // middle: the last entry fills the hole
  EXPECT_EQ(KeysInOrder(b), (std::vector<Key>{1, 2, 6, 4, 5}));
  ASSERT_TRUE(b.Erase(5));  // last: nothing moves
  EXPECT_EQ(KeysInOrder(b), (std::vector<Key>{1, 2, 6, 4}));
  ASSERT_TRUE(b.Insert(7, Numbered(2, 70)));
  EXPECT_EQ(KeysInOrder(b), (std::vector<Key>{1, 2, 6, 4, 7}));
  // Records travel with their keys through growth and erases.
  b.ForEach([](Key k, const Record& r) {
    EXPECT_EQ(r, Numbered(2, static_cast<int64_t>(k) * 10)) << k;
  });
}

TEST(BucketTest, EmptiesAndRefills) {
  Bucket b;
  EXPECT_EQ(b.num_records(), 0u);
  EXPECT_EQ(b.Find(1), nullptr);
  EXPECT_FALSE(b.Erase(1));
  ASSERT_TRUE(b.Insert(1, Numbered(8, 1)));
  ASSERT_TRUE(b.Insert(2, Numbered(8, 2)));
  ASSERT_TRUE(b.Erase(1));
  ASSERT_TRUE(b.Erase(2));
  EXPECT_EQ(b.num_records(), 0u);
  EXPECT_TRUE(KeysInOrder(b).empty());
  ASSERT_TRUE(b.Insert(3, Numbered(8, 3)));
  ASSERT_NE(b.Find(3), nullptr);
  EXPECT_EQ(*b.Find(3), Numbered(8, 3));
}

TEST(BucketTest, MoveKeepsLockAndEntries) {
  Bucket a;
  ASSERT_TRUE(a.TryLockExclusive());
  a.UnlockExclusive(/*modified=*/true);
  ASSERT_TRUE(a.Insert(9, Numbered(8, 9)));
  Bucket b(std::move(a));
  EXPECT_EQ(b.version(), 1u);
  EXPECT_EQ(KeysInOrder(b), (std::vector<Key>{9}));
  EXPECT_EQ(a.num_records(), 0u);  // NOLINT(bugprone-use-after-move)
}

TEST(BucketTest, InsertFindErase) {
  Bucket b;
  EXPECT_TRUE(b.Insert(1, Record(2)));
  EXPECT_TRUE(b.Insert(2, Record(2)));
  EXPECT_FALSE(b.Insert(1, Record(2)));  // duplicate
  ASSERT_NE(b.Find(1), nullptr);
  EXPECT_EQ(b.Find(3), nullptr);
  EXPECT_TRUE(b.Erase(1));
  EXPECT_FALSE(b.Erase(1));
  EXPECT_EQ(b.num_records(), 1u);
}

TEST(BucketTest, LockInterface) {
  Bucket b;
  EXPECT_TRUE(b.TryLockExclusive());
  EXPECT_FALSE(b.TryLockShared());
  b.UnlockExclusive(/*modified=*/true);
  EXPECT_EQ(b.version(), 1u);
  EXPECT_TRUE(b.TryLockShared());
  b.UnlockShared();
}

TEST(TableTest, BucketStableForKey) {
  Table t(TableSpec{.name = "x", .id = 0, .num_fields = 1,
                    .buckets_per_partition = 64});
  for (Key k = 0; k < 100; ++k) {
    EXPECT_EQ(t.BucketIndex(k), t.BucketIndex(k));
    EXPECT_LT(t.BucketIndex(k), 64u);
  }
}

TEST(TableTest, InsertAndFind) {
  Table t(TableSpec{.name = "x", .id = 0, .num_fields = 2,
                    .buckets_per_partition = 16});
  for (Key k = 0; k < 100; ++k) {
    Record r(2);
    r.Set(0, static_cast<int64_t>(k) * 10);
    ASSERT_TRUE(t.Insert(k, r).ok());
  }
  EXPECT_EQ(t.num_records(), 100u);
  for (Key k = 0; k < 100; ++k) {
    Record* r = t.Find(k);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->Get(0), static_cast<int64_t>(k) * 10);
  }
  EXPECT_TRUE(t.Insert(5, Record(2)).IsFailedPrecondition());
  EXPECT_TRUE(t.Erase(5).ok());
  EXPECT_TRUE(t.Erase(5).IsNotFound());
  EXPECT_EQ(t.num_records(), 99u);
}

TEST(TableTest, OverflowSharesBucketLock) {
  // Two keys in the same bucket share one lock: locking one blocks the other
  // (bucket-granularity locking, Section 6).
  Table t(TableSpec{.name = "x", .id = 0, .num_fields = 1,
                    .buckets_per_partition = 1});
  ASSERT_TRUE(t.Insert(1, Record(1)).ok());
  ASSERT_TRUE(t.Insert(2, Record(1)).ok());
  EXPECT_EQ(t.BucketFor(1), t.BucketFor(2));
  ASSERT_TRUE(t.BucketFor(1)->TryLockExclusive());
  EXPECT_FALSE(t.BucketFor(2)->TryLockExclusive());
  t.BucketFor(1)->UnlockExclusive(false);
}

std::vector<TableSpec> TwoTableSchema() {
  return {TableSpec{.name = "a", .id = 0, .num_fields = 2,
                    .buckets_per_partition = 64},
          TableSpec{.name = "b", .id = 3, .num_fields = 1,
                    .buckets_per_partition = 64}};
}

TEST(PartitionStoreTest, SparseTableIds) {
  PartitionStore store(0, TwoTableSchema());
  EXPECT_EQ(store.table(0)->spec().name, "a");
  EXPECT_EQ(store.table(3)->spec().name, "b");
}

TEST(PartitionStoreTest, LockUnlockTracking) {
  PartitionStore store(0, TwoTableSchema());
  const RecordId rid{0, 42};
  ASSERT_TRUE(store.Insert(rid, Record(2)).ok());
  EXPECT_TRUE(store.TryLock(rid, LockMode::kExclusive).ok());
  EXPECT_EQ(store.locks_held(), 1u);
  EXPECT_TRUE(store.TryLock(rid, LockMode::kShared).IsAborted());
  store.Unlock(rid, LockMode::kExclusive, /*modified=*/true);
  EXPECT_EQ(store.locks_held(), 0u);
  EXPECT_EQ(store.VersionOf(rid), 1u);
}

TEST(PartitionStoreTest, NoWaitConflictAcrossKeysInBucket) {
  std::vector<TableSpec> schema = {TableSpec{
      .name = "a", .id = 0, .num_fields = 1, .buckets_per_partition = 1}};
  PartitionStore store(0, schema);
  ASSERT_TRUE(store.Insert(RecordId{0, 1}, Record(1)).ok());
  ASSERT_TRUE(store.Insert(RecordId{0, 2}, Record(1)).ok());
  ASSERT_TRUE(store.TryLock(RecordId{0, 1}, LockMode::kExclusive).ok());
  EXPECT_TRUE(store.TryLock(RecordId{0, 2}, LockMode::kShared).IsAborted());
  store.Unlock(RecordId{0, 1}, LockMode::kExclusive, false);
}

TEST(PartitionStoreTest, RecordCount) {
  PartitionStore store(0, TwoTableSchema());
  ASSERT_TRUE(store.Insert(RecordId{0, 1}, Record(2)).ok());
  ASSERT_TRUE(store.Insert(RecordId{3, 1}, Record(1)).ok());
  EXPECT_EQ(store.num_records(), 2u);
  ASSERT_TRUE(store.Erase(RecordId{3, 1}).ok());
  EXPECT_EQ(store.num_records(), 1u);
}

// ---------------------------------------------------------------------------
// Record migration API (online repartitioning)
// ---------------------------------------------------------------------------

TEST(PartitionStoreTest, ExtractInstallRoundtrip) {
  PartitionStore from(0, TwoTableSchema());
  PartitionStore to(1, TwoTableSchema());
  Record r(2);
  r.Set(0, 11);
  r.Set(1, 22);
  ASSERT_TRUE(from.Insert(RecordId{0, 7}, r).ok());

  auto extracted = from.ExtractRecord(RecordId{0, 7});
  ASSERT_TRUE(extracted.ok()) << extracted.status().ToString();
  EXPECT_EQ(from.num_records(), 0u);
  EXPECT_EQ(from.Find(RecordId{0, 7}), nullptr);

  ASSERT_TRUE(
      to.InstallRecord(RecordId{0, 7}, std::move(extracted).value()).ok());
  Record* moved = to.Find(RecordId{0, 7});
  ASSERT_NE(moved, nullptr);
  EXPECT_EQ(moved->Get(0), 11);
  EXPECT_EQ(moved->Get(1), 22);
}

TEST(PartitionStoreTest, ExtractMissingRecordIsNotFound) {
  PartitionStore store(0, TwoTableSchema());
  EXPECT_TRUE(store.ExtractRecord(RecordId{0, 9}).status().IsNotFound());
}

TEST(PartitionStoreTest, MigrationRefusesLockedBuckets) {
  PartitionStore store(0, TwoTableSchema());
  ASSERT_TRUE(store.Insert(RecordId{0, 4}, Record(2)).ok());
  ASSERT_TRUE(store.TryLock(RecordId{0, 4}, LockMode::kShared).ok());
  EXPECT_TRUE(
      store.ExtractRecord(RecordId{0, 4}).status().IsFailedPrecondition());
  // Locking is per bucket: another key colliding into the locked bucket
  // is just as unmovable.
  Key collider = 5;
  while (store.table(0)->BucketIndex(collider) !=
         store.table(0)->BucketIndex(4)) {
    ++collider;
  }
  EXPECT_TRUE(store.InstallRecord(RecordId{0, collider}, Record(2))
                  .IsFailedPrecondition());
  store.Unlock(RecordId{0, 4}, LockMode::kShared, false);
  EXPECT_TRUE(store.ExtractRecord(RecordId{0, 4}).ok());
}

TEST(PartitionStoreTest, InstallDuplicateIsFailedPrecondition) {
  PartitionStore store(0, TwoTableSchema());
  ASSERT_TRUE(store.Insert(RecordId{0, 4}, Record(2)).ok());
  EXPECT_TRUE(store.InstallRecord(RecordId{0, 4}, Record(2))
                  .IsFailedPrecondition());
}

}  // namespace
}  // namespace chiller::storage
