// Tests for the live-migration subsystem (src/migrate): relayout buckets
// and the bucket lock table, per-bucket SwappablePartitioner transitions,
// MigrationPlan diffs, LiveMigrator invariants under traffic (conservation,
// single residency, the dedicated migration abort class), the live-migrate
// phase and continuous controller through ScenarioRunner, and the
// adaptive-tpcc workload.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "bench/bench_report.h"
#include "migrate/adaptive_controller.h"
#include "migrate/live_migrator.h"
#include "migrate/migration_governor.h"
#include "migrate/migration_plan.h"
#include "migrate/relayout.h"
#include "partition/lookup_table.h"
#include "runner/runner.h"
#include "runner/sweep.h"

namespace chiller {
namespace {

using migrate::BucketLockTable;
using migrate::LiveMigrator;
using migrate::MigrationPlan;
using migrate::RelayoutBucketOf;
using partition::HashPartitioner;
using partition::LookupPartitioner;
using partition::SwappablePartitioner;
using runner::Phase;
using runner::ScenarioRunner;
using runner::ScenarioSpec;

// ---------------------------------------------------------------------------
// Relayout buckets and the lock table
// ---------------------------------------------------------------------------

TEST(RelayoutBucketTest, StableAndInRange) {
  for (uint32_t buckets : {1u, 7u, 64u}) {
    for (uint64_t k = 0; k < 500; ++k) {
      const RecordId rid{2, k};
      const migrate::BucketId b = RelayoutBucketOf(rid, buckets);
      EXPECT_LT(b, buckets);
      EXPECT_EQ(b, RelayoutBucketOf(rid, buckets));  // pure function
    }
  }
}

TEST(BucketLockTableTest, EpochLifecycleAndGate) {
  BucketLockTable table;
  EXPECT_FALSE(table.epoch_active());
  EXPECT_FALSE(table.ever_active());
  EXPECT_FALSE(table.IsMigrating(RecordId{0, 1}));

  table.BeginEpoch(8);
  EXPECT_TRUE(table.epoch_active());
  EXPECT_TRUE(table.ever_active());
  EXPECT_FALSE(table.IsMigrating(RecordId{0, 1}));  // nothing locked yet

  // Find a rid in bucket 3 and one outside it.
  RecordId inside{0, 0};
  RecordId outside{0, 0};
  for (uint64_t k = 0;; ++k) {
    const RecordId rid{1, k};
    if (RelayoutBucketOf(rid, 8) == 3) {
      inside = rid;
      break;
    }
  }
  for (uint64_t k = 0;; ++k) {
    const RecordId rid{1, k};
    if (RelayoutBucketOf(rid, 8) != 3) {
      outside = rid;
      break;
    }
  }
  table.Acquire(3);
  EXPECT_EQ(table.locked_buckets(), 1u);
  EXPECT_TRUE(table.IsMigrating(inside));
  EXPECT_FALSE(table.IsMigrating(outside));
  table.Release(3);
  EXPECT_FALSE(table.IsMigrating(inside));

  table.EndEpoch();
  EXPECT_FALSE(table.epoch_active());
  EXPECT_TRUE(table.ever_active());  // sticky: protocols keep checking
}

TEST(BucketLockTableTest, MultiBucketLockFreezeReleaseInterleavings) {
  // The k>1 contract (see relayout.h): several buckets held at once, any
  // lock/release order, freezes independent of bucket locks, IsMigrating
  // answering over the union of everything held.
  BucketLockTable table;
  table.BeginEpoch(16);

  // One probe rid per bucket, so membership checks are exact.
  std::vector<RecordId> probe(16, RecordId{0, 0});
  std::vector<bool> found(16, false);
  for (uint64_t k = 0; size_t(std::count(found.begin(), found.end(), true)) <
                       found.size();
       ++k) {
    const RecordId rid{1, k};
    const migrate::BucketId b = RelayoutBucketOf(rid, 16);
    if (!found[b]) {
      probe[b] = rid;
      found[b] = true;
    }
  }

  // Widen to three concurrent buckets.
  table.Acquire(2);
  table.Acquire(7);
  table.Acquire(11);
  EXPECT_EQ(table.locked_buckets(), 3u);
  for (migrate::BucketId b = 0; b < 16; ++b) {
    EXPECT_EQ(table.IsMigrating(probe[b]), b == 2 || b == 7 || b == 11);
  }

  // Escalate a freeze while multiple buckets are held; it is keyed on
  // storage buckets, not relayout buckets, and is invisible to IsMigrating.
  const BucketLockTable::StorageBucketKey frozen{1, 0, 5};
  table.FreezeStorageBucket(frozen);
  EXPECT_TRUE(table.IsStorageBucketFrozen(frozen));
  EXPECT_TRUE(table.HasFrozenStorageBuckets());

  // Release out of acquisition order; the rest stay gated.
  table.Release(7);
  EXPECT_TRUE(table.IsMigrating(probe[2]));
  EXPECT_FALSE(table.IsMigrating(probe[7]));
  EXPECT_TRUE(table.IsMigrating(probe[11]));

  // A released bucket's slot can go to a different bucket (narrow + widen
  // elsewhere), and the freeze may outlive the bucket that escalated it.
  table.Acquire(7 + 1);
  EXPECT_TRUE(table.IsMigrating(probe[8]));
  table.Release(2);
  table.Release(8);
  EXPECT_TRUE(table.IsStorageBucketFrozen(frozen));

  // Everything must be lifted before the epoch closes.
  table.Release(11);
  table.UnfreezeStorageBucket(frozen);
  EXPECT_FALSE(table.HasFrozenStorageBuckets());
  table.EndEpoch();
  EXPECT_FALSE(table.epoch_active());
}

TEST(BucketLockTableDeathTest, ContractViolationsCheck) {
  BucketLockTable table;
  table.BeginEpoch(8);
  table.Acquire(3);
  // Each bucket is acquired at most once per epoch.
  EXPECT_DEATH(table.Acquire(3), "already locked");
  // Releasing something never locked is a bug, with k>1 as with k=1.
  EXPECT_DEATH(table.Release(5), "not locked");
  // The epoch cannot close with a bucket still in flight...
  EXPECT_DEATH(table.EndEpoch(), "still locked");
  table.Release(3);
  // ...or with an escalated freeze still in place.
  table.FreezeStorageBucket({0, 0, 1});
  EXPECT_DEATH(table.EndEpoch(), "frozen");
  table.UnfreezeStorageBucket({0, 0, 1});
  table.EndEpoch();
}

// ---------------------------------------------------------------------------
// SwappablePartitioner per-bucket transition
// ---------------------------------------------------------------------------

TEST(SwappableTransitionTest, FlipRoutesOneBucketAtATime) {
  constexpr uint32_t kPartitions = 4;
  constexpr uint32_t kBuckets = 8;
  SwappablePartitioner live(std::make_unique<HashPartitioner>(kPartitions));
  const uint64_t v0 = live.version();

  // Incoming layout: every key's explicit entry moves one partition over.
  auto next = std::make_unique<LookupPartitioner>(
      std::make_unique<HashPartitioner>(kPartitions));
  std::vector<RecordId> rids;
  for (uint64_t k = 0; k < 64; ++k) {
    const RecordId rid{1, k};
    next->Assign(rid, (live.PartitionOf(rid) + 1) % kPartitions);
    rids.push_back(rid);
  }

  EXPECT_FALSE(live.in_transition());
  live.BeginTransition(std::move(next), kBuckets);
  EXPECT_TRUE(live.in_transition());
  EXPECT_GT(live.version(), v0);

  // Nothing flipped: all records still route through the old layout.
  HashPartitioner old_layout(kPartitions);
  for (const RecordId& rid : rids) {
    EXPECT_EQ(live.PartitionOf(rid), old_layout.PartitionOf(rid));
  }

  // Flip one bucket: exactly its records re-route.
  const migrate::BucketId flipped = RelayoutBucketOf(rids[0], kBuckets);
  const uint64_t v1 = live.version();
  live.FlipBucket(flipped);
  EXPECT_GT(live.version(), v1);
  for (const RecordId& rid : rids) {
    const PartitionId old_p = old_layout.PartitionOf(rid);
    if (RelayoutBucketOf(rid, kBuckets) == flipped) {
      EXPECT_EQ(live.PartitionOf(rid), (old_p + 1) % kPartitions);
    } else {
      EXPECT_EQ(live.PartitionOf(rid), old_p);
    }
  }

  // Finishing collapses: every record routes through the new layout.
  auto retired = live.FinishTransition();
  EXPECT_FALSE(live.in_transition());
  EXPECT_NE(retired, nullptr);
  for (const RecordId& rid : rids) {
    EXPECT_EQ(live.PartitionOf(rid),
              (old_layout.PartitionOf(rid) + 1) % kPartitions);
  }
}

TEST(SwappableTransitionTest, LookupEntriesSpanBothLayoutsMidTransition) {
  SwappablePartitioner live(std::make_unique<HashPartitioner>(2));
  auto next = std::make_unique<LookupPartitioner>(
      std::make_unique<HashPartitioner>(2));
  next->Assign(RecordId{0, 1}, 1);
  next->Assign(RecordId{0, 2}, 0);
  EXPECT_EQ(live.LookupEntries(), 0u);
  live.BeginTransition(std::move(next), 4);
  EXPECT_EQ(live.LookupEntries(), 2u);  // staged table is resident too
  live.FinishTransition();
  EXPECT_EQ(live.LookupEntries(), 2u);
}

// ---------------------------------------------------------------------------
// MigrationPlan
// ---------------------------------------------------------------------------

ScenarioSpec SmallAdaptive() {
  ScenarioSpec spec;
  spec.workload = "adaptive";
  spec.protocol = "chiller";
  spec.nodes = 3;
  spec.engines_per_node = 1;
  spec.concurrency = 4;
  spec.seed = 7;
  spec.options.Set("keys_per_partition", 2000);
  spec.options.Set("theta", 0.9);
  return spec;
}

/// The standard six-phase plan (warmup -> sample -> replan -> migrate or
/// live-migrate -> resettle -> measure) the runner-level tests share.
std::vector<Phase> PhasedPlan(bool live, double hot_threshold = 0.05) {
  return {
      Phase::Warmup(kMillisecond),
      Phase::Sample(2 * kMillisecond, /*rate=*/1.0),
      Phase::Replan(hot_threshold),
      live ? Phase::LiveMigrate() : Phase::Migrate(),
      Phase::Warmup(kMillisecond),
      Phase::Measure(3 * kMillisecond),
  };
}

/// A target layout that re-homes every `stride`-th record of the wired
/// cluster one partition over; cold keys keep the hash fallback the live
/// layout uses, so only the explicit entries diff.
std::unique_ptr<LookupPartitioner> ShiftedLayout(
    cc::Cluster* cluster, uint32_t partitions, uint64_t stride) {
  auto target = std::make_unique<LookupPartitioner>(
      std::make_unique<HashPartitioner>(partitions));
  uint64_t n = 0;
  for (PartitionId p = 0; p < partitions; ++p) {
    cluster->primary(p)->ForEach(
        [&](const RecordId& rid, const storage::Record&) {
          if (n++ % stride == 0) {
            target->Assign(rid, (p + 1) % partitions);
          }
        });
  }
  return target;
}

TEST(MigrationPlanTest, DiffGroupsMovesByBucketAscending) {
  auto env = ScenarioRunner::Wire(SmallAdaptive());
  ASSERT_TRUE(env.ok()) << env.status().ToString();
  const uint32_t partitions = 3;
  auto target = ShiftedLayout(env->cluster.get(), partitions, 10);
  const size_t entries = target->LookupEntries();
  ASSERT_GT(entries, 0u);

  const MigrationPlan plan =
      MigrationPlan::Diff(env->cluster.get(), *target, 16);
  EXPECT_EQ(plan.num_buckets, 16u);
  EXPECT_EQ(plan.total_moves(), entries);
  migrate::BucketId prev = 0;
  bool first = true;
  for (const migrate::MoveUnit& unit : plan.units) {
    if (!first) EXPECT_GT(unit.bucket, prev);
    prev = unit.bucket;
    first = false;
    EXPECT_FALSE(unit.moves.empty());
    for (const migrate::RecordMove& mv : unit.moves) {
      EXPECT_EQ(RelayoutBucketOf(mv.rid, 16), unit.bucket);
      EXPECT_EQ(mv.to, target->PartitionOf(mv.rid));
      EXPECT_NE(mv.from, mv.to);
      EXPECT_NE(env->cluster->primary(mv.from)->Find(mv.rid), nullptr);
    }
  }

  // One bucket degenerates to the whole diff in one unit (the quiesced
  // path's schedule).
  const MigrationPlan flat =
      MigrationPlan::Diff(env->cluster.get(), *target, 1);
  ASSERT_EQ(flat.units.size(), 1u);
  EXPECT_EQ(flat.units[0].moves.size(), entries);
}

TEST(MigrationPlanTest, IdenticalLayoutDiffsEmpty) {
  auto env = ScenarioRunner::Wire(SmallAdaptive());
  ASSERT_TRUE(env.ok()) << env.status().ToString();
  HashPartitioner same(3);  // the adaptive workload's hash-start layout
  const MigrationPlan plan = MigrationPlan::Diff(env->cluster.get(), same, 8);
  EXPECT_EQ(plan.total_moves(), 0u);
  EXPECT_TRUE(plan.units.empty());
}

// ---------------------------------------------------------------------------
// MigrationGovernor
// ---------------------------------------------------------------------------

TEST(MigrationGovernorTest, AimdWidensWhenCalmAndHalvesOnViolation) {
  migrate::MigrationGovernorOptions opts;
  opts.min_streams = 1;
  opts.max_streams = 6;
  opts.p99_budget = 100 * kMicrosecond;
  opts.max_abort_share = 0.10;
  migrate::MigrationGovernor gov(opts, /*initial_streams=*/1);
  EXPECT_EQ(gov.target(), 1u);

  // Calm epochs: additive increase, one stream per epoch, capped at max.
  migrate::GovernorSignals calm{.commits = 1000, .migration_aborts = 10,
                                .p99 = 50 * kMicrosecond};
  for (uint32_t want : {2u, 3u, 4u, 5u, 6u, 6u}) {
    EXPECT_EQ(gov.Decide(calm), want);
  }
  EXPECT_EQ(gov.report().widens, 5u);  // the capped epoch widened nothing

  // Abort-share violation: multiplicative decrease (6 -> 3 -> 1),
  // floored at min_streams.
  migrate::GovernorSignals aborting{.commits = 800, .migration_aborts = 200,
                                    .p99 = 50 * kMicrosecond};
  EXPECT_EQ(gov.Decide(aborting), 3u);
  EXPECT_EQ(gov.Decide(aborting), 1u);
  EXPECT_EQ(gov.Decide(aborting), 1u);
  EXPECT_EQ(gov.report().narrows, 2u);  // the floored epoch narrowed nothing

  // Latency violation halves too, independent of the abort share.
  EXPECT_EQ(gov.Decide(calm), 2u);
  migrate::GovernorSignals slow{.commits = 1000, .migration_aborts = 0,
                                .p99 = 200 * kMicrosecond};
  EXPECT_EQ(gov.Decide(slow), 1u);

  // An idle epoch (no outcomes at all) reads as calm, not as a violation.
  EXPECT_EQ(gov.Decide(migrate::GovernorSignals{}), 2u);

  // p99_budget = 0 disables the latency signal entirely.
  migrate::MigrationGovernorOptions no_lat = opts;
  no_lat.p99_budget = 0;
  migrate::MigrationGovernor gov2(no_lat, /*initial_streams=*/2);
  EXPECT_EQ(gov2.Decide(slow), 3u);
}

// ---------------------------------------------------------------------------
// LiveMigrator invariants under traffic
// ---------------------------------------------------------------------------

TEST(LiveMigratorTest, ConservationAndSingleResidencyHoldMidMigration) {
  ScenarioSpec spec = SmallAdaptive();
  auto env = ScenarioRunner::Wire(spec);
  ASSERT_TRUE(env.ok()) << env.status().ToString();
  cc::Cluster* cluster = env->cluster.get();
  cc::Driver* driver = env->driver.get();
  const uint32_t partitions = spec.partitions();
  const size_t initial_records = cluster->TotalPrimaryRecords();

  driver->Start();
  driver->Advance(kMillisecond);

  auto target = ShiftedLayout(cluster, partitions, 25);
  MigrationPlan plan = MigrationPlan::Diff(cluster, *target, 8);
  ASSERT_GT(plan.total_moves(), 0u);
  ASSERT_GT(plan.units.size(), 1u);
  const std::vector<migrate::MoveUnit> units = plan.units;  // keep a copy

  SwappablePartitioner* live = env->bundle->adaptive_partitioner();
  LiveMigrator migrator(cluster, env->repl.get(), live);
  const uint64_t commits_before = driver->lifetime_commits();
  ASSERT_TRUE(
      migrator.Start(std::move(plan), std::move(target)).ok());

  // Step the simulator in small slices; at every boundary the storage
  // invariants must hold even though records are mid-relayout.
  int steps = 0;
  while (!migrator.done()) {
    driver->Advance(20 * kMicrosecond);
    ASSERT_LT(++steps, 100000) << "live migration did not settle";

    EXPECT_EQ(cluster->TotalPrimaryRecords(), initial_records)
        << "record conservation violated mid-migration";
    for (const migrate::MoveUnit& unit : units) {
      for (const migrate::RecordMove& mv : unit.moves) {
        int residency = 0;
        for (PartitionId p = 0; p < partitions; ++p) {
          if (cluster->primary(p)->Find(mv.rid) != nullptr) ++residency;
        }
        EXPECT_EQ(residency, 1)
            << mv.rid.ToString() << " resident " << residency << " times";
      }
    }
  }

  // Converged: every planned record sits at its target primary, the epoch
  // is closed, and traffic flowed throughout.
  for (const migrate::MoveUnit& unit : units) {
    for (const migrate::RecordMove& mv : unit.moves) {
      EXPECT_NE(cluster->primary(mv.to)->Find(mv.rid), nullptr);
      EXPECT_EQ(cluster->primary(mv.from)->Find(mv.rid), nullptr);
      EXPECT_EQ(live->PartitionOf(mv.rid), mv.to);
    }
  }
  size_t planned = 0;
  for (const auto& unit : units) planned += unit.moves.size();
  EXPECT_EQ(migrator.stats().base.moved_records, planned);
  EXPECT_EQ(migrator.stats().buckets_moved, units.size());
  EXPECT_FALSE(cluster->bucket_locks()->epoch_active());
  EXPECT_TRUE(cluster->bucket_locks()->ever_active());
  EXPECT_FALSE(live->in_transition());
  EXPECT_GT(driver->lifetime_commits(), commits_before)
      << "no commits during the live relayout: migration stopped the world";

  driver->Quiesce();
  EXPECT_EQ(cluster->TotalPrimaryRecords(), initial_records);
}

TEST(LiveMigratorTest, BlockedTransactionsUseTheMigrationAbortClass) {
  // Move a large slice of the keyspace through few relayout buckets on a
  // contended workload: while each bucket is in flight, a meaningful
  // fraction of all accesses lands in it and must abort-and-retry with
  // the dedicated class, not the conflict class.
  ScenarioSpec spec = SmallAdaptive();
  auto env = ScenarioRunner::Wire(spec);
  ASSERT_TRUE(env.ok()) << env.status().ToString();
  cc::Cluster* cluster = env->cluster.get();
  cc::Driver* driver = env->driver.get();

  driver->Start();
  driver->Advance(kMillisecond);

  auto target = ShiftedLayout(cluster, spec.partitions(), 5);
  MigrationPlan plan = MigrationPlan::Diff(cluster, *target, 4);
  ASSERT_GT(plan.total_moves(), 100u);

  LiveMigrator migrator(cluster, env->repl.get(),
                        env->bundle->adaptive_partitioner());
  ASSERT_TRUE(migrator.Start(std::move(plan), std::move(target)).ok());
  int steps = 0;
  while (!migrator.done()) {
    driver->Advance(50 * kMicrosecond);
    ASSERT_LT(++steps, 100000);
  }
  EXPECT_GT(driver->lifetime_migration_aborts(), 0u);
  driver->Quiesce();
}

TEST(LiveMigratorTest, EmptyPlanSwapsLayoutImmediately) {
  ScenarioSpec spec = SmallAdaptive();
  auto env = ScenarioRunner::Wire(spec);
  ASSERT_TRUE(env.ok()) << env.status().ToString();
  SwappablePartitioner* live = env->bundle->adaptive_partitioner();
  auto target = std::make_unique<HashPartitioner>(spec.partitions());

  LiveMigrator migrator(env->cluster.get(), env->repl.get(), live);
  ASSERT_TRUE(migrator
                  .Start(MigrationPlan{.num_buckets = 8, .units = {}},
                         std::move(target))
                  .ok());
  EXPECT_TRUE(migrator.done());
  EXPECT_EQ(migrator.stats().base.moved_records, 0u);
  EXPECT_FALSE(live->in_transition());
  EXPECT_FALSE(env->cluster->bucket_locks()->epoch_active());
}

TEST(LiveMigratorTest, ConcurrentStreamsPreserveConservationAndResidency) {
  // The k=4 variant of the conservation test: four buckets in flight at
  // once must still never duplicate or lose a record at any observable
  // instant.
  ScenarioSpec spec = SmallAdaptive();
  auto env = ScenarioRunner::Wire(spec);
  ASSERT_TRUE(env.ok()) << env.status().ToString();
  cc::Cluster* cluster = env->cluster.get();
  cc::Driver* driver = env->driver.get();
  const uint32_t partitions = spec.partitions();
  const size_t initial_records = cluster->TotalPrimaryRecords();

  driver->Start();
  driver->Advance(kMillisecond);

  auto target = ShiftedLayout(cluster, partitions, 25);
  MigrationPlan plan = MigrationPlan::Diff(cluster, *target, 8);
  ASSERT_GT(plan.units.size(), 4u);
  const std::vector<migrate::MoveUnit> units = plan.units;

  migrate::LiveMigratorOptions mopts;
  mopts.streams = 4;
  LiveMigrator migrator(cluster, env->repl.get(),
                        env->bundle->adaptive_partitioner(), mopts);
  ASSERT_TRUE(migrator.Start(std::move(plan), std::move(target)).ok());
  EXPECT_EQ(migrator.active_streams(), 4u);

  int steps = 0;
  while (!migrator.done()) {
    driver->Advance(20 * kMicrosecond);
    ASSERT_LT(++steps, 100000) << "live migration did not settle";
    EXPECT_LE(migrator.active_streams(), 4u);
    EXPECT_EQ(cluster->TotalPrimaryRecords(), initial_records);
    for (const migrate::MoveUnit& unit : units) {
      for (const migrate::RecordMove& mv : unit.moves) {
        int residency = 0;
        for (PartitionId p = 0; p < partitions; ++p) {
          if (cluster->primary(p)->Find(mv.rid) != nullptr) ++residency;
        }
        ASSERT_EQ(residency, 1)
            << mv.rid.ToString() << " resident " << residency << " times";
      }
    }
  }

  EXPECT_EQ(migrator.stats().peak_streams, 4u);
  EXPECT_EQ(migrator.stats().buckets_moved, units.size());
  for (const migrate::MoveUnit& unit : units) {
    for (const migrate::RecordMove& mv : unit.moves) {
      EXPECT_NE(cluster->primary(mv.to)->Find(mv.rid), nullptr);
      EXPECT_EQ(cluster->primary(mv.from)->Find(mv.rid), nullptr);
    }
  }
  EXPECT_FALSE(cluster->bucket_locks()->epoch_active());
  driver->Quiesce();
  EXPECT_EQ(cluster->TotalPrimaryRecords(), initial_records);
}

TEST(LiveMigratorTest, MoreStreamsFinishTheSamePlanFaster) {
  // Identical sampling history -> identical plan; only the stream width
  // differs. k=4 must move the same record set in strictly less simulated
  // time than k=1.
  auto run = [](uint32_t streams) {
    ScenarioSpec spec = SmallAdaptive();
    spec.phases = PhasedPlan(/*live=*/true);
    spec.relayout_buckets = 8;
    spec.migrate_streams = streams;
    auto result = ScenarioRunner::Run(spec);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result).value();
  };
  const runner::ScenarioResult s1 = run(1);
  const runner::ScenarioResult s4 = run(4);

  ASSERT_GT(s1.adaptive.migration.moved_records, 0u);
  EXPECT_EQ(s1.adaptive.migration.moved_records,
            s4.adaptive.migration.moved_records);
  EXPECT_EQ(s1.adaptive.buckets_moved, s4.adaptive.buckets_moved);
  EXPECT_EQ(s1.adaptive.peak_streams, 1u);
  EXPECT_GT(s4.adaptive.peak_streams, 1u);
  EXPECT_LT(s4.adaptive.migration.sim_time, s1.adaptive.migration.sim_time)
      << "4 concurrent streams did not shorten the relayout window";
  // Traffic kept flowing in both.
  EXPECT_GT(s1.adaptive.migration_window_commits, 0u);
  EXPECT_GT(s4.adaptive.migration_window_commits, 0u);
}

// ---------------------------------------------------------------------------
// The live-migrate phase and the continuous controller through the runner
// ---------------------------------------------------------------------------

TEST(LiveMigratePhaseTest, LiveAndQuiescedConvergeToTheSameLayout) {
  ScenarioSpec live = SmallAdaptive();
  live.phases = PhasedPlan(/*live=*/true);
  live.relayout_buckets = 8;
  live.timeline_slice = 250 * kMicrosecond;

  ScenarioSpec quiesced = live;
  quiesced.phases = PhasedPlan(/*live=*/false);

  auto lr = ScenarioRunner::Run(live);
  auto qr = ScenarioRunner::Run(quiesced);
  ASSERT_TRUE(lr.ok()) << lr.status().ToString();
  ASSERT_TRUE(qr.ok()) << qr.status().ToString();

  // Identical history through the replan: identical layout, identical
  // record set to move.
  EXPECT_EQ(lr->adaptive.sampled_txns, qr->adaptive.sampled_txns);
  EXPECT_EQ(lr->adaptive.hot_records, qr->adaptive.hot_records);
  EXPECT_EQ(lr->adaptive.lookup_entries, qr->adaptive.lookup_entries);
  EXPECT_GT(lr->adaptive.migration.moved_records, 0u);
  EXPECT_EQ(lr->adaptive.migration.moved_records,
            qr->adaptive.migration.moved_records);
  EXPECT_GT(lr->adaptive.buckets_moved, 0u);

  // The defining difference: commits keep landing inside the live window,
  // never inside the quiesced one.
  EXPECT_GT(lr->adaptive.migration_window_commits, 0u);
  EXPECT_EQ(qr->adaptive.migration_window_commits, 0u);
  EXPECT_GT(lr->stats.TotalCommits(), 0u);
  EXPECT_GT(qr->stats.TotalCommits(), 0u);

  // Timelines cover the run contiguously.
  for (const auto* r : {&*lr, &*qr}) {
    ASSERT_FALSE(r->adaptive.timeline.empty());
    for (size_t i = 1; i < r->adaptive.timeline.size(); ++i) {
      EXPECT_EQ(r->adaptive.timeline[i].start,
                r->adaptive.timeline[i - 1].end);
    }
  }
}

TEST(ContinuousControllerTest, ConvergesThenSettles) {
  ScenarioSpec spec;
  spec.workload = "adaptive";
  spec.protocol = "chiller";
  spec.nodes = 4;
  spec.engines_per_node = 2;
  spec.concurrency = 4;
  spec.seed = 3;
  spec.options.Set("keys_per_partition", 2000);
  spec.options.Set("theta", 0.9);
  spec.continuous = true;
  spec.warmup = kMillisecond;
  spec.measure = 12 * kMillisecond;
  spec.controller_period = kMillisecond;
  spec.relayout_buckets = 8;

  auto result = ScenarioRunner::Run(spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->adaptive.controller_epochs, 0u);
  EXPECT_GE(result->adaptive.controller_migrations, 1u);
  EXPECT_GT(result->adaptive.migration.moved_records, 0u);
  EXPECT_GT(result->adaptive.sampled_txns, 0u);
  EXPECT_GT(result->stats.TotalCommits(), 0u);
  // Hysteresis: the hash-start layout converges and the loop goes quiet
  // well before the window ends.
  EXPECT_TRUE(result->adaptive.controller_settled);
  EXPECT_LT(result->adaptive.controller_migrations, 4u);
}

TEST(GovernedLiveMigrateTest, GovernorWidensWhenTheBudgetTolerates) {
  // A tolerant SLO (any abort share passes, no latency budget): every
  // governor epoch is calm, so the width ratchets up from 1 while the
  // relayout runs. Small batches + fine advance steps give the governor
  // many epochs inside one relayout.
  ScenarioSpec spec = SmallAdaptive();
  spec.phases = PhasedPlan(/*live=*/true);
  spec.relayout_buckets = 16;
  spec.migrate_batch_records = 8;
  spec.timeline_slice = 100 * kMicrosecond;
  spec.governor = true;
  spec.governor_max_streams = 8;
  spec.governor_max_abort_share = 1.0;

  auto result = ScenarioRunner::Run(spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->adaptive.migration.moved_records, 0u);
  EXPECT_GT(result->adaptive.governor_widens, 0u);
  EXPECT_GT(result->adaptive.peak_streams, 1u);
}

TEST(GovernedLiveMigrateTest, GovernorBacksOffUnderAZeroToleranceBudget) {
  // Start wide with a budget nothing can satisfy (abort share > 0 is a
  // violation, and the contended head guarantees migration aborts): the
  // first violated epoch halves the width, never widens it.
  // A low hot threshold moves a large record set, so the k=8 relayout
  // spans many 50 us governor epochs even at full width.
  ScenarioSpec spec = SmallAdaptive();
  spec.phases = PhasedPlan(/*live=*/true, /*hot_threshold=*/0.002);
  spec.relayout_buckets = 16;
  spec.migrate_batch_records = 4;
  spec.timeline_slice = 50 * kMicrosecond;
  spec.migrate_streams = 8;  // the governor's starting width
  spec.governor = true;
  spec.governor_max_streams = 8;
  spec.governor_max_abort_share = 0.0;

  auto result = ScenarioRunner::Run(spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->adaptive.migration.moved_records, 0u);
  EXPECT_GT(result->adaptive.governor_narrows, 0u);
  EXPECT_EQ(result->adaptive.governor_widens, 0u);
  EXPECT_EQ(result->adaptive.peak_streams, 8u);  // wide until the first halve
}

TEST(ContinuousControllerTest, RotatedHotSetReArmsTheLoop) {
  // The workload's hot head rotates mid-window. A settling-only controller
  // would keep the stale layout; with rearm_threshold set, the drift
  // detector sees the settled layout's residual contention jump and
  // re-arms the full sample -> replan -> migrate loop.
  ScenarioSpec spec = SmallAdaptive();
  spec.continuous = true;
  spec.warmup = kMillisecond;
  spec.measure = 20 * kMillisecond;
  spec.controller_period = kMillisecond;
  spec.relayout_buckets = 8;
  spec.rearm_threshold = 0.25;
  spec.options.Set("shift_every_us", uint64_t{10000});
  spec.options.Set("shift_stride", uint64_t{500});

  auto result = ScenarioRunner::Run(spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GE(result->adaptive.controller_rearms, 1u);
  // Re-arming is not cosmetic: the loop replanned and migrated again
  // after the shift.
  EXPECT_GE(result->adaptive.controller_migrations, 2u);
  EXPECT_GT(result->adaptive.migration.moved_records, 0u);
  EXPECT_GT(result->stats.TotalCommits(), 0u);
}

TEST(ContinuousControllerTest, ShadowModeScoresWithoutMovingARecord) {
  ScenarioSpec spec = SmallAdaptive();
  spec.continuous = true;
  spec.warmup = kMillisecond;
  spec.measure = 8 * kMillisecond;
  spec.controller_period = kMillisecond;
  spec.relayout_buckets = 8;
  spec.shadow = true;

  auto result = ScenarioRunner::Run(spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Candidates were scored every epoch...
  EXPECT_GT(result->adaptive.shadow_evals, 0u);
  EXPECT_GT(result->adaptive.sampled_txns, 0u);
  EXPECT_NE(result->adaptive.last_drift, 0.0);
  // ...but nothing executed, and the loop never settles (it keeps
  // scoring for the whole run).
  EXPECT_EQ(result->adaptive.controller_migrations, 0u);
  EXPECT_EQ(result->adaptive.migration.moved_records, 0u);
  EXPECT_EQ(result->adaptive.buckets_moved, 0u);
  EXPECT_EQ(result->adaptive.peak_streams, 0u);
  EXPECT_FALSE(result->adaptive.controller_settled);
  EXPECT_GT(result->stats.TotalCommits(), 0u);
}

TEST(ContinuousControllerTest, FrozenWorkloadIsRejected) {
  ScenarioSpec spec = SmallAdaptive();
  spec.workload = "ycsb";  // frozen layout
  spec.continuous = true;
  auto result = ScenarioRunner::Run(spec);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsFailedPrecondition());
}

TEST(MigrateValidationTest, RejectsMalformedSpecs) {
  ScenarioSpec spec = SmallAdaptive();
  spec.phases = {Phase::Sample(kMillisecond, 1.0), Phase::LiveMigrate(),
                 Phase::Measure(kMillisecond)};  // live-migrate sans replan
  EXPECT_TRUE(ScenarioRunner::Validate(spec).IsInvalidArgument());

  spec = SmallAdaptive();
  spec.phases = PhasedPlan(/*live=*/true);
  EXPECT_TRUE(ScenarioRunner::Validate(spec).ok());
  spec.relayout_buckets = 0;
  EXPECT_TRUE(ScenarioRunner::Validate(spec).IsInvalidArgument());
  spec.relayout_buckets = 8;
  spec.migrate_batch_records = 0;
  EXPECT_TRUE(ScenarioRunner::Validate(spec).IsInvalidArgument());

  spec = SmallAdaptive();
  spec.continuous = true;
  spec.phases = PhasedPlan(/*live=*/true);  // controller owns the loop
  EXPECT_TRUE(ScenarioRunner::Validate(spec).IsInvalidArgument());

  spec = SmallAdaptive();
  spec.continuous = true;
  spec.controller_period = 0;
  EXPECT_TRUE(ScenarioRunner::Validate(spec).IsInvalidArgument());
  spec.controller_period = kMillisecond;
  spec.controller_sample_rate = 1.5;
  EXPECT_TRUE(ScenarioRunner::Validate(spec).IsInvalidArgument());
  spec.controller_sample_rate = 1.0;
  spec.controller_hysteresis = 0;
  EXPECT_TRUE(ScenarioRunner::Validate(spec).IsInvalidArgument());
  spec.controller_hysteresis = 2;
  EXPECT_TRUE(ScenarioRunner::Validate(spec).ok());

  // Concurrent streams and the governor.
  spec = SmallAdaptive();
  spec.phases = PhasedPlan(/*live=*/true);
  spec.migrate_streams = 0;
  EXPECT_TRUE(ScenarioRunner::Validate(spec).IsInvalidArgument());
  spec.migrate_streams = 4;
  spec.governor = true;
  spec.governor_min_streams = 0;
  EXPECT_TRUE(ScenarioRunner::Validate(spec).IsInvalidArgument());
  spec.governor_min_streams = 4;
  spec.governor_max_streams = 2;  // min > max
  EXPECT_TRUE(ScenarioRunner::Validate(spec).IsInvalidArgument());
  spec.governor_max_streams = 8;
  spec.governor_max_abort_share = 1.5;
  EXPECT_TRUE(ScenarioRunner::Validate(spec).IsInvalidArgument());
  spec.governor_max_abort_share = 0.1;
  EXPECT_TRUE(ScenarioRunner::Validate(spec).ok());

  // Re-arm and shadow are continuous-mode features, and exclusive.
  spec = SmallAdaptive();
  spec.phases = PhasedPlan(/*live=*/true);
  spec.rearm_threshold = -0.5;
  EXPECT_TRUE(ScenarioRunner::Validate(spec).IsInvalidArgument());
  spec.rearm_threshold = 0.2;  // re-arm without continuous
  EXPECT_TRUE(ScenarioRunner::Validate(spec).IsInvalidArgument());
  spec = SmallAdaptive();
  spec.phases = PhasedPlan(/*live=*/true);
  spec.shadow = true;  // shadow without continuous
  EXPECT_TRUE(ScenarioRunner::Validate(spec).IsInvalidArgument());
  spec = SmallAdaptive();
  spec.continuous = true;
  spec.shadow = true;
  EXPECT_TRUE(ScenarioRunner::Validate(spec).ok());
  spec.rearm_threshold = 0.2;  // shadow never settles: nothing to re-arm
  EXPECT_TRUE(ScenarioRunner::Validate(spec).IsInvalidArgument());
  spec.shadow = false;
  EXPECT_TRUE(ScenarioRunner::Validate(spec).ok());
}

// ---------------------------------------------------------------------------
// adaptive-tpcc: multi-table migration with the remote-warehouse pattern
// ---------------------------------------------------------------------------

TEST(AdaptiveTpccTest, LiveMigratesAcrossTheMultiTableSchema) {
  ScenarioSpec spec;
  spec.workload = "adaptive-tpcc";
  spec.protocol = "chiller";
  spec.nodes = 3;
  spec.engines_per_node = 1;
  spec.concurrency = 2;
  spec.seed = 11;
  spec.relayout_buckets = 8;
  // The TPC-C contended head (warehouse + district rows) is small in
  // absolute count; a lower hot threshold pulls enough of it into the
  // lookup table to make the relayout move records across the schema.
  spec.phases = PhasedPlan(/*live=*/true, /*hot_threshold=*/0.002);

  auto result = ScenarioRunner::Run(spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // The replan found the contended TPC-C head (warehouse/district rows)
  // on the hash-start layout and physically re-homed records while the
  // full mix — including mid-run inserts — kept running.
  EXPECT_GT(result->adaptive.sampled_txns, 0u);
  EXPECT_GT(result->adaptive.migration.moved_records, 0u);
  EXPECT_GT(result->adaptive.migration_window_commits, 0u);
  EXPECT_GT(result->stats.TotalCommits(), 0u);
}

TEST(AdaptiveTpccTest, QuiescedPathWorksToo) {
  // Chiller on purpose: after the quiesced swap the two-region planner
  // engages on a layout the workload's co-location declarations were not
  // written against, and violations must degrade to the 2PL fallback
  // (txn::Transaction::force_fallback) rather than CHECK-crash — the
  // quiesced swap arms the gate via NoteLayoutMutation just like a live
  // epoch does.
  ScenarioSpec spec;
  spec.workload = "adaptive-tpcc";
  spec.protocol = "chiller";
  spec.nodes = 3;
  spec.engines_per_node = 1;
  spec.concurrency = 2;
  spec.seed = 4;
  spec.phases = PhasedPlan(/*live=*/false, /*hot_threshold=*/0.002);

  auto result = ScenarioRunner::Run(spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->adaptive.migration.moved_records, 0u);
  EXPECT_GT(result->stats.TotalCommits(), 0u);
}

// ---------------------------------------------------------------------------
// Report schema stability
// ---------------------------------------------------------------------------

TEST(MigrationReportTest, AbortFieldOnlyAppearsWhenTheGateFired) {
  cc::RunStats stats;
  stats.EnsureClass(0, "T");
  stats.classes[0].commits = 10;
  stats.window = kMillisecond;
  Json quiet = bench::ResultRow("chiller", Json::MakeObject(), stats);
  EXPECT_EQ(quiet.Get("migration_aborts"), nullptr);

  stats.classes[0].migration_aborts = 3;
  Json live = bench::ResultRow("chiller", Json::MakeObject(), stats);
  ASSERT_NE(live.Get("migration_aborts"), nullptr);
  EXPECT_EQ(live.Get("migration_aborts")->AsDouble(), 3.0);
  // Migration aborts count as attempts but never as contention.
  EXPECT_EQ(stats.TotalAttempts(), 13u);
  EXPECT_EQ(stats.TotalMigrationAborts(), 3u);
  EXPECT_DOUBLE_EQ(stats.AbortRate(), 0.0);
}

}  // namespace
}  // namespace chiller
