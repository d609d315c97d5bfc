// Unit tests for the storage substrate: lock words, buckets, tables, stores.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "storage/block_arena.h"
#include "storage/bucket.h"
#include "storage/lock_word.h"
#include "storage/partition_store.h"
#include "storage/record.h"
#include "storage/slab.h"
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

/// A standalone bucket and the arena its blocks come from; returns the
/// block on destruction, as Table does for its buckets.
struct ArenaBucket {
  BlockArena arena;
  Bucket b;
  ~ArenaBucket() { b.Clear(&arena); }
  bool Insert(Key k, Record r) { return b.Insert(&arena, k, std::move(r)); }
  bool Erase(Key k) { return b.Erase(&arena, k); }
};

TEST(BucketTest, OrderMatchesAppendAndSwapWithLastErase) {
  // The order a std::vector gives with push_back and erase-by-moving-the-
  // last-entry-into-the-hole; migration batches depend on it.
  ArenaBucket ab;
  for (Key k = 1; k <= 6; ++k) {  // grows past 4 entries
    ASSERT_TRUE(ab.Insert(k, Numbered(2, static_cast<int64_t>(k) * 10)));
  }
  EXPECT_EQ(KeysInOrder(ab.b), (std::vector<Key>{1, 2, 3, 4, 5, 6}));
  ASSERT_TRUE(ab.Erase(3));  // middle: the last entry fills the hole
  EXPECT_EQ(KeysInOrder(ab.b), (std::vector<Key>{1, 2, 6, 4, 5}));
  ASSERT_TRUE(ab.Erase(5));  // last: nothing moves
  EXPECT_EQ(KeysInOrder(ab.b), (std::vector<Key>{1, 2, 6, 4}));
  ASSERT_TRUE(ab.Insert(7, Numbered(2, 70)));
  EXPECT_EQ(KeysInOrder(ab.b), (std::vector<Key>{1, 2, 6, 4, 7}));
  // Records travel with their keys through growth and erases.
  ab.b.ForEach([](Key k, const Record& r) {
    EXPECT_EQ(r, Numbered(2, static_cast<int64_t>(k) * 10)) << k;
  });
}

TEST(BucketTest, GrowthThroughEveryClassKeepsOrder) {
  // 1 -> 2 -> 4 -> ... -> 64 entries: each doubling moves the entries into
  // a block of the next size class, in order; erases then shrink it.
  ArenaBucket ab;
  std::vector<Key> expected;
  for (Key k = 100; k < 140; ++k) {
    ASSERT_TRUE(ab.Insert(k, Numbered(k % 2 == 0 ? 8 : 3,
                                      static_cast<int64_t>(k))));
    expected.push_back(k);
    ASSERT_EQ(KeysInOrder(ab.b), expected) << k;
  }
  for (Key k : {Key{100}, Key{139}, Key{120}}) {
    ASSERT_TRUE(ab.Erase(k));
    auto it = std::find(expected.begin(), expected.end(), k);
    *it = expected.back();
    expected.pop_back();
    ASSERT_EQ(KeysInOrder(ab.b), expected) << k;
  }
  ab.b.ForEach([](Key k, const Record& r) {
    EXPECT_EQ(r, Numbered(k % 2 == 0 ? 8 : 3, static_cast<int64_t>(k))) << k;
  });
}

TEST(BucketTest, EmptiesAndRefills) {
  ArenaBucket ab;
  EXPECT_EQ(ab.b.num_records(), 0u);
  EXPECT_EQ(ab.b.Find(1), nullptr);
  EXPECT_FALSE(ab.Erase(1));
  ASSERT_TRUE(ab.Insert(1, Numbered(8, 1)));
  ASSERT_TRUE(ab.Insert(2, Numbered(8, 2)));
  ASSERT_TRUE(ab.Erase(1));
  ASSERT_TRUE(ab.Erase(2));
  EXPECT_EQ(ab.b.num_records(), 0u);
  EXPECT_TRUE(KeysInOrder(ab.b).empty());
  ASSERT_TRUE(ab.Insert(3, Numbered(8, 3)));
  ASSERT_NE(ab.b.Find(3), nullptr);
  EXPECT_EQ(*ab.b.Find(3), Numbered(8, 3));
}

// A table constructs its buckets in place in a slab piece; nothing moves
// one.
static_assert(!std::is_move_constructible_v<Bucket>);

TEST(BucketTest, InsertFindErase) {
  ArenaBucket ab;
  EXPECT_TRUE(ab.Insert(1, Record(2)));
  EXPECT_TRUE(ab.Insert(2, Record(2)));
  EXPECT_FALSE(ab.Insert(1, Record(2)));  // duplicate
  ASSERT_NE(ab.b.Find(1), nullptr);
  EXPECT_EQ(ab.b.Find(3), nullptr);
  EXPECT_TRUE(ab.Erase(1));
  EXPECT_FALSE(ab.Erase(1));
  EXPECT_EQ(ab.b.num_records(), 1u);
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

// ---------------------------------------------------------------------------
// BlockArena
// ---------------------------------------------------------------------------

// The point of the arena: a one-entry block (header plus one entry) is one
// cache line, and the next two capacities take two and four.
static_assert(Bucket::BlockBytes(1) <= BlockArena::kLineBytes);
static_assert(BlockArena::ClassBytes(Bucket::BlockBytes(1)) == 64);
static_assert(BlockArena::ClassBytes(Bucket::BlockBytes(2)) == 128);
static_assert(BlockArena::ClassBytes(Bucket::BlockBytes(4)) == 256);

bool LineAligned(const void* p) {
  return reinterpret_cast<uintptr_t>(p) % BlockArena::kLineBytes == 0;
}

TEST(BlockArenaTest, EveryBlockIsLineAligned) {
  BlockArena arena;
  std::vector<std::pair<void*, size_t>> blocks;
  // Enough blocks to span several chunks of the small classes, plus
  // classes larger than a chunk.
  for (size_t i = 0; i < 3000; ++i) {
    const size_t bytes = 1 + (i * 37) % 700;
    blocks.emplace_back(arena.Allocate(bytes), bytes);
  }
  for (size_t bytes : {BlockArena::kChunkBytes, 3 * BlockArena::kChunkBytes}) {
    blocks.emplace_back(arena.Allocate(bytes), bytes);
  }
  for (const auto& [p, bytes] : blocks) {
    EXPECT_TRUE(LineAligned(p)) << p << " (" << bytes << " B)";
  }
  for (const auto& [p, bytes] : blocks) arena.Free(p, bytes);
}

TEST(BlockArenaTest, OneRecordBucketSitsInOneLine) {
  BlockArena arena;
  Table t(TableSpec{.name = "x", .id = 0, .num_fields = 4,
                    .buckets_per_partition = 4096},
          &arena);
  for (Key k = 0; k < 500; ++k) ASSERT_TRUE(t.Insert(k, Record(4)).ok());
  size_t checked = 0;
  for (Key k = 0; k < 500; ++k) {
    if (t.BucketFor(k)->num_records() != 1) continue;
    const auto first = reinterpret_cast<uintptr_t>(t.Find(k));
    const uintptr_t last = first + sizeof(Record) - 1;
    EXPECT_EQ(first / BlockArena::kLineBytes, last / BlockArena::kLineBytes)
        << k;
    ++checked;
  }
  EXPECT_GT(checked, 400u);
}

TEST(BlockArenaTest, FreedBlockIsReusedByItsSizeClass) {
  BlockArena arena;
  void* one_line = arena.Allocate(Bucket::BlockBytes(1));
  void* two_lines = arena.Allocate(Bucket::BlockBytes(2));
  arena.Free(one_line, Bucket::BlockBytes(1));
  // Another class does not take the freed line...
  void* four_lines = arena.Allocate(Bucket::BlockBytes(4));
  EXPECT_NE(four_lines, one_line);
  // ...a request of the same class does, whatever its exact size.
  void* reused = arena.Allocate(40);
  EXPECT_EQ(reused, one_line);
  EXPECT_NE(arena.Allocate(Bucket::BlockBytes(1)), one_line);
  arena.Free(two_lines, Bucket::BlockBytes(2));
  EXPECT_EQ(arena.Allocate(Bucket::BlockBytes(2)), two_lines);
}

TEST(BlockArenaTest, BucketGrowthReturnsTheOldBlock) {
  BlockArena arena;
  Bucket b;
  ASSERT_TRUE(b.Insert(&arena, 1, Record(2)));
  const auto* line = reinterpret_cast<const char*>(b.Find(1));
  ASSERT_TRUE(b.Insert(&arena, 2, Record(2)));  // moves to a 2-entry block
  ASSERT_NE(reinterpret_cast<const char*>(b.Find(1)), line);
  Bucket other;
  ASSERT_TRUE(other.Insert(&arena, 3, Record(2)));  // takes the freed line
  EXPECT_EQ(reinterpret_cast<const char*>(other.Find(3)), line);
  b.Clear(&arena);
  other.Clear(&arena);
}

// Tearing a store down destroys every record (spilled field arrays
// included) through its tables before the arena releases its chunks; the
// asan build's leak check fails this test if anything is left behind.
TEST(BlockArenaTest, StoreTeardownReleasesEverything) {
  std::vector<TableSpec> schema = {
      TableSpec{.name = "wide", .id = 0, .num_fields = 8,
                .buckets_per_partition = 8},
      TableSpec{.name = "narrow", .id = 1, .num_fields = 2,
                .buckets_per_partition = 64}};
  auto store = std::make_unique<PartitionStore>(0, schema);
  for (Key k = 0; k < 200; ++k) {
    ASSERT_TRUE(store->Insert(RecordId{0, k}, Numbered(8, 1)).ok());
    ASSERT_TRUE(store->Insert(RecordId{1, k}, Numbered(2, 1)).ok());
  }
  for (Key k = 0; k < 200; k += 3) {
    ASSERT_TRUE(store->Erase(RecordId{0, k}).ok());
  }
  EXPECT_EQ(store->num_records(), 200u + 200u - 67u);
  store.reset();
}

#if defined(__SANITIZE_ADDRESS__)
// A Record* stays valid only until the next Insert or Erase on its bucket.
// Reading through one after its key is erased lands in a poisoned block.
void ReadAfterErase() {
  PartitionStore store(0, {TableSpec{.name = "a", .id = 0, .num_fields = 2,
                                     .buckets_per_partition = 64}});
  const RecordId rid{0, 7};
  CHILLER_CHECK(store.Insert(rid, Numbered(2, 5)).ok());
  const Record* stale = store.Find(rid);
  CHILLER_CHECK(store.Erase(rid).ok());
  volatile int64_t v = stale->Get(0);
  (void)v;
}

TEST(BlockArenaDeathTest, ReadThroughStaleRecordIsReported) {
  EXPECT_DEATH(ReadAfterErase(), "use-after-poison");
}
#endif

// ---------------------------------------------------------------------------
// Slab
// ---------------------------------------------------------------------------

/// `bytes` at `p` lie inside one slab extent that starts and ends on a
/// 2 MB boundary.
void ExpectInHugePageExtent(const void* p, size_t bytes) {
  const std::span<const char> e = Slab::Get().ExtentOf(p);
  ASSERT_FALSE(e.empty()) << p << " is not slab memory";
  EXPECT_EQ(reinterpret_cast<uintptr_t>(e.data()) % Slab::kHugePageBytes, 0u);
  EXPECT_EQ(e.size() % Slab::kHugePageBytes, 0u);
  EXPECT_LE(static_cast<const char*>(p) + bytes, e.data() + e.size()) << p;
}

void ExpectBucketArrayInHugePageExtent(Table* t) {
  ExpectInHugePageExtent(t->BucketAt(0), t->num_buckets() * sizeof(Bucket));
}

TEST(SlabTest, BucketArraysAndChunksLieInHugePageExtents) {
  PartitionStore store(0, {TableSpec{.name = "big", .id = 0, .num_fields = 2,
                                     .buckets_per_partition = 200'000},
                           TableSpec{.name = "small", .id = 1,
                                     .num_fields = 4,
                                     .buckets_per_partition = 16}});
  ExpectBucketArrayInHugePageExtent(store.table(0));
  ExpectBucketArrayInHugePageExtent(store.table(1));
  // Enough records for several chunks of one-line blocks, and 16 buckets
  // whose blocks grow through many classes.
  for (Key k = 0; k < 20'000; ++k) {
    ASSERT_TRUE(store.Insert(RecordId{0, k}, Numbered(2, 1)).ok());
    ASSERT_TRUE(store.Insert(RecordId{1, k}, Numbered(4, 1)).ok());
  }
  store.ForEach([](const RecordId&, const Record& r) {
    ExpectInHugePageExtent(&r, sizeof(Record));
  });
  // A block larger than a chunk gets a slab piece of its own.
  BlockArena arena;
  for (size_t bytes : {BlockArena::kChunkBytes, 3 * BlockArena::kChunkBytes}) {
    void* block = arena.Allocate(bytes);
    ExpectInHugePageExtent(block, bytes);
    arena.Free(block, bytes);
  }
}

/// Builds a store of one fixed schema, loads it and tears it down: one of
/// the benchmark's sub-runs, as far as the slab sees it. About 5 MB of
/// buckets and blocks, so ten cycles that did not reuse memory would need
/// more than one extent.
void BuildLoadAndDestroyStore(Key records) {
  PartitionStore store(0, {TableSpec{.name = "a", .id = 0, .num_fields = 2,
                                     .buckets_per_partition = 250'000},
                           TableSpec{.name = "b", .id = 1, .num_fields = 8,
                                     .buckets_per_partition = 50'000}});
  for (Key k = 0; k < records; ++k) {
    CHILLER_CHECK(store.Insert(RecordId{k % 2 == 0 ? TableId{0} : TableId{1},
                                        k},
                               Numbered(k % 2 == 0 ? 2 : 8, 1))
                      .ok());
  }
}

TEST(SlabTest, RebuildingOneSchemaKeepsMappedBytesFlat) {
  static_assert(10 * (300'000 * sizeof(Bucket)) > Slab::kExtentBytes);
  BuildLoadAndDestroyStore(40'000);
  const size_t mapped = Slab::Get().mapped_bytes();
  for (int cycle = 1; cycle < 10; ++cycle) {
    BuildLoadAndDestroyStore(40'000);
    EXPECT_EQ(Slab::Get().mapped_bytes(), mapped) << "cycle " << cycle;
  }
}

// Two threads build, load, check and destroy stores of one schema at once,
// as two clusters of a `--jobs=2` sweep do, so each takes pieces the other
// returned; the tsan preset checks the slab's locking.
TEST(SlabTest, StoresBuildAndDieOnTwoThreadsAtOnce) {
  auto cycles = [] {
    for (int cycle = 0; cycle < 20; ++cycle) {
      PartitionStore store(0, {TableSpec{.name = "a", .id = 0,
                                         .num_fields = 2,
                                         .buckets_per_partition = 4096}});
      for (Key k = 0; k < 3000; ++k) {
        CHILLER_CHECK(store.Insert(RecordId{0, k},
                                   Numbered(2, static_cast<int64_t>(k)))
                          .ok());
      }
      for (Key k = 0; k < 3000; ++k) {
        const Record* r = store.Find(RecordId{0, k});
        CHILLER_CHECK(r != nullptr &&
                      *r == Numbered(2, static_cast<int64_t>(k)));
      }
    }
  };
  std::thread other(cycles);
  cycles();
  other.join();
}

#if defined(__SANITIZE_ADDRESS__)
// A piece returned to the slab is poisoned until the slab hands it out
// again, as the arena's freed blocks are.
void ReadBucketOfDeadTable() {
  BlockArena arena;
  auto table = std::make_unique<Table>(
      TableSpec{.name = "x", .id = 0, .num_fields = 1,
                .buckets_per_partition = 64},
      &arena);
  const Bucket* stale = table->BucketAt(7);
  table.reset();
  volatile uint64_t w = stale->lock_word();
  (void)w;
}

TEST(SlabDeathTest, ReturnedPieceReadsAsPoisoned) {
  EXPECT_DEATH(ReadBucketOfDeadTable(), "use-after-poison");
}
#endif

TEST(TableTest, BucketStableForKey) {
  BlockArena arena;
  Table t(TableSpec{.name = "x", .id = 0, .num_fields = 1,
                    .buckets_per_partition = 64},
          &arena);
  for (Key k = 0; k < 100; ++k) {
    EXPECT_EQ(t.BucketIndex(k), t.BucketIndex(k));
    EXPECT_LT(t.BucketIndex(k), 64u);
  }
}

TEST(TableTest, InsertAndFind) {
  BlockArena arena;
  Table t(TableSpec{.name = "x", .id = 0, .num_fields = 2,
                    .buckets_per_partition = 16},
          &arena);
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
  BlockArena arena;
  Table t(TableSpec{.name = "x", .id = 0, .num_fields = 1,
                    .buckets_per_partition = 1},
          &arena);
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

// Everything a probe can observe of a store: every bucket's lock word
// (version bits included), every record in ForEach order, and the counts.
struct StoreImage {
  std::vector<uint64_t> lock_words;
  std::vector<std::pair<RecordId, Record>> records;
  size_t num_records = 0;
  size_t locks_held = 0;
  bool operator==(const StoreImage&) const = default;
};

StoreImage ImageOf(PartitionStore* store, const std::vector<TableId>& ids) {
  StoreImage image;
  for (TableId id : ids) {
    Table* t = store->table(id);
    for (size_t b = 0; b < t->num_buckets(); ++b) {
      image.lock_words.push_back(t->BucketAt(b)->lock_word());
    }
  }
  store->ForEach([&](const RecordId& rid, const Record& r) {
    image.records.emplace_back(rid, r);
  });
  image.num_records = store->num_records();
  image.locks_held = store->locks_held();
  return image;
}

// The cache hints change nothing a probe can see: not for a key in an
// empty bucket, a missing key in a populated one, a key in a multi-entry
// (overflowing) bucket, or a key whose bucket is locked.
TEST(PartitionStoreTest, PrefetchHintsLeaveStoreBitIdentical) {
  PartitionStore store(0, TwoTableSchema());
  Table* a = store.table(0);
  // Three keys in one bucket of table 0, so its block holds three entries.
  std::vector<Key> crowded = {1};
  for (Key k = 2; crowded.size() < 3; ++k) {
    if (a->BucketIndex(k) == a->BucketIndex(1)) crowded.push_back(k);
  }
  for (Key k : crowded) {
    const Record r = Numbered(2, static_cast<int64_t>(k));
    ASSERT_TRUE(store.Insert(RecordId{0, k}, r).ok());
  }
  ASSERT_EQ(a->BucketFor(1)->num_records(), 3u);
  // A single record whose bucket carries version bits and a held lock.
  Key locked = 2;
  while (a->BucketIndex(locked) == a->BucketIndex(1)) ++locked;
  ASSERT_TRUE(store.Insert(RecordId{0, locked}, Numbered(2, 7)).ok());
  ASSERT_TRUE(store.TryLock(RecordId{0, locked}, LockMode::kExclusive).ok());
  store.Unlock(RecordId{0, locked}, LockMode::kExclusive, /*modified=*/true);
  ASSERT_TRUE(store.TryLock(RecordId{0, locked}, LockMode::kShared).ok());
  ASSERT_TRUE(store.Insert(RecordId{3, 5}, Numbered(1, 5)).ok());
  // A key alone in an empty bucket, and a missing key in a full one.
  Key empty = 100;
  while (a->BucketFor(empty)->num_records() != 0) ++empty;
  Key missing = crowded.back() + 1;
  while (a->BucketIndex(missing) != a->BucketIndex(1)) ++missing;

  const StoreImage before = ImageOf(&store, {0, 3});
  ASSERT_EQ(before.locks_held, 1u);
  const std::vector<RecordId> probes = {
      {0, empty}, {0, missing}, {0, crowded[0]}, {0, crowded[2]},
      {0, locked}, {3, 5}, {3, 6}};
  for (const RecordId& rid : probes) store.PrefetchBucket(rid);
  for (const RecordId& rid : probes) store.PrefetchRecord(rid);
  EXPECT_EQ(ImageOf(&store, {0, 3}), before);
  EXPECT_EQ(store.VersionOf(RecordId{0, locked}), 1u);
  EXPECT_EQ(store.Find(RecordId{0, missing}), nullptr);
  store.Unlock(RecordId{0, locked}, LockMode::kShared, false);
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

// Moving every record to a same-shaped store, in scan order, reproduces
// the scan order there: both stores' blocks come from their own arenas,
// and the records (spilled ones included) arrive intact.
TEST(PartitionStoreTest, ExtractInstallInScanOrderKeepsScanOrder) {
  std::vector<TableSpec> schema = {TableSpec{
      .name = "a", .id = 0, .num_fields = 8, .buckets_per_partition = 16}};
  PartitionStore from(0, schema);
  PartitionStore to(1, schema);
  for (Key k = 0; k < 100; ++k) {
    ASSERT_TRUE(
        from.Insert(RecordId{0, k}, Numbered(8, static_cast<int64_t>(k)))
            .ok());
  }
  for (Key k = 0; k < 100; k += 7) ASSERT_TRUE(from.Erase({0, k}).ok());
  std::vector<RecordId> order;
  from.ForEach([&](const RecordId& rid, const Record&) {
    order.push_back(rid);
  });
  for (const RecordId& rid : order) {
    auto rec = from.ExtractRecord(rid);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    ASSERT_TRUE(to.InstallRecord(rid, std::move(rec).value()).ok());
  }
  EXPECT_EQ(from.num_records(), 0u);
  std::vector<RecordId> moved;
  to.ForEach([&](const RecordId& rid, const Record& r) {
    moved.push_back(rid);
    EXPECT_EQ(r, Numbered(8, static_cast<int64_t>(rid.key))) << rid.key;
  });
  EXPECT_EQ(moved, order);
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
