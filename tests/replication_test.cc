// Tests for the replication protocols of paper Section 5, most importantly
// the inner-region scheme of Figure 6: the inner host streams updates to
// its replicas and moves on WITHOUT waiting; the replicas acknowledge the
// COORDINATOR; correctness rests on per-queue-pair FIFO delivery.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cc/cluster.h"
#include "cc/replication.h"
#include "chiller/two_region.h"
#include "migrate/live_migrator.h"
#include "migrate/migration_plan.h"
#include "partition/lookup_table.h"
#include "workload/flight.h"

namespace chiller {
namespace {

using cc::ReplUpdate;

struct ReplEnv {
  std::unique_ptr<cc::Cluster> cluster;
  std::unique_ptr<cc::ReplicationManager> repl;
};

ReplEnv MakeEnv(uint32_t nodes, uint32_t replication) {
  ReplEnv env;
  cc::ClusterConfig cfg;
  cfg.topology = net::Topology{.num_nodes = nodes,
                               .engines_per_node = 1,
                               .replication_degree = replication};
  cfg.schema = {storage::TableSpec{.name = "t", .id = 0, .num_fields = 1,
                                   .buckets_per_partition = 64}};
  env.cluster = std::make_unique<cc::Cluster>(cfg);
  env.repl = std::make_unique<cc::ReplicationManager>(env.cluster.get());
  return env;
}

ReplUpdate Put(Key k, int64_t v) {
  ReplUpdate u;
  u.kind = ReplUpdate::Kind::kPut;
  u.rid = RecordId{0, k};
  u.image = storage::Record(1);
  u.image.Set(0, v);
  return u;
}

TEST(ReplicationTest, UpdatesReachEveryReplica) {
  ReplEnv env = MakeEnv(3, 3);
  bool done = false;
  env.repl->Replicate(0, 0, {Put(1, 42), Put(2, 7)}, 0, [&] { done = true; });
  env.cluster->sim()->Run();
  ASSERT_TRUE(done);
  for (uint32_t r = 1; r < 3; ++r) {
    auto* store = env.cluster->replica(0, r);
    ASSERT_NE(store->Find({0, 1}), nullptr);
    EXPECT_EQ(store->Find({0, 1})->Get(0), 42);
    EXPECT_EQ(store->Find({0, 2})->Get(0), 7);
  }
}

TEST(ReplicationTest, AckGoesToCoordinatorNotSender) {
  // Figure 6: the inner host (engine 1) streams; the coordinator (engine 0)
  // receives the acknowledgements. The coordinator may continue only after
  // one full one-way trip host->replica plus one replica->coordinator trip.
  ReplEnv env = MakeEnv(3, 2);
  const net::Topology& topo = env.cluster->topology();
  const EngineId inner_host = 1;
  const EngineId coordinator = 0;
  const EngineId replica_engine = topo.ReplicaEngine(1, 1);
  ASSERT_NE(topo.NodeOfEngine(replica_engine), topo.NodeOfEngine(inner_host));

  SimTime acked_at = 0;
  env.repl->Replicate(inner_host, 1, {Put(5, 1)}, coordinator,
                      [&] { acked_at = env.cluster->sim()->now(); });
  env.cluster->sim()->Run();
  ASSERT_GT(acked_at, 0u);
  // Lower bound: two one-way network trips (host->replica, replica->coord).
  const SimTime two_trips = 2 * env.cluster->config().network.OneWay(0);
  EXPECT_GT(acked_at, two_trips);
}

TEST(ReplicationTest, SenderDoesNotWait) {
  // The inner host's side of Replicate returns control immediately: no
  // event at the sender depends on the acks (fire-and-continue). We assert
  // the sender engine's CPU is idle right after the call.
  ReplEnv env = MakeEnv(3, 2);
  env.repl->Replicate(1, 1, {Put(5, 1)}, 0, [] {});
  // The send consumed only the RPC post cost at engine 1.
  EXPECT_LE(env.cluster->engine(1)->cpu()->busy_until(),
            env.cluster->config().network.post_cost);
  env.cluster->sim()->Run();
}

TEST(ReplicationTest, FifoStreamsApplyInOrder) {
  // Two batches updating the same record: the second must win at every
  // replica, because queue pairs are FIFO (Section 5's correctness
  // argument; "it cannot happen that any update gets lost or overwritten
  // while its subsequent updates have been applied").
  ReplEnv env = MakeEnv(3, 3);
  int acks = 0;
  env.repl->Replicate(0, 0, {Put(1, 111)}, 0, [&] { ++acks; });
  env.repl->Replicate(0, 0, {Put(1, 222)}, 0, [&] { ++acks; });
  env.cluster->sim()->Run();
  EXPECT_EQ(acks, 2);
  for (uint32_t r = 1; r < 3; ++r) {
    EXPECT_EQ(env.cluster->replica(0, r)->Find({0, 1})->Get(0), 222);
  }
}

TEST(ReplicationTest, ManyInterleavedStreamsConverge) {
  ReplEnv env = MakeEnv(4, 2);
  // Partition 2's primary streams 50 ordered updates; interleave with
  // streams to other partitions to stress queue-pair independence.
  for (int i = 1; i <= 50; ++i) {
    env.repl->Replicate(2, 2, {Put(9, i)}, 0, [] {});
    env.repl->Replicate(1, 1, {Put(9, i * 1000)}, 0, [] {});
  }
  env.cluster->sim()->Run();
  EXPECT_EQ(env.cluster->replica(2, 1)->Find({0, 9})->Get(0), 50);
  EXPECT_EQ(env.cluster->replica(1, 1)->Find({0, 9})->Get(0), 50000);
}

TEST(ReplicationTest, EraseStreamsApply) {
  ReplEnv env = MakeEnv(3, 2);
  bool done = false;
  env.repl->Replicate(0, 0, {Put(3, 1)}, 0, [] {});
  ReplUpdate erase;
  erase.kind = ReplUpdate::Kind::kErase;
  erase.rid = RecordId{0, 3};
  env.repl->Replicate(0, 0, {erase}, 0, [&] { done = true; });
  env.cluster->sim()->Run();
  ASSERT_TRUE(done);
  EXPECT_EQ(env.cluster->replica(0, 1)->Find({0, 3}), nullptr);
}

/// A replica's state as a sequence of words: every bucket's lock word,
/// then each record's key and fields in ForEach order, then the count.
std::vector<uint64_t> Digest(storage::PartitionStore* store) {
  std::vector<uint64_t> d;
  storage::Table* t = store->table(0);
  for (size_t b = 0; b < t->num_buckets(); ++b) {
    d.push_back(t->BucketAt(b)->lock_word());
  }
  store->ForEach([&](const RecordId& rid, const storage::Record& r) {
    d.push_back(rid.key);
    for (int64_t f : r.fields()) d.push_back(static_cast<uint64_t>(f));
  });
  d.push_back(store->num_records());
  return d;
}

/// The reference: each update applied on its own, with no cache hints.
void ApplyOnePass(storage::PartitionStore* store,
                  const std::vector<ReplUpdate>& ups) {
  for (const ReplUpdate& u : ups) {
    if (u.kind == ReplUpdate::Kind::kErase) {
      ASSERT_TRUE(store->Erase(u.rid).ok());
    } else if (storage::Record* rec = store->Find(u.rid); rec != nullptr) {
      *rec = u.image;
    } else {
      ASSERT_TRUE(store->Insert(u.rid, u.image).ok());
    }
  }
}

// A replica prefetches every bucket and block of a batch before applying
// it, so the batch's own updates move blocks the hints already named. The
// applied state must still equal one-pass application: two puts to one
// record (the second wins), a put that inserts into a full one-entry
// bucket (growing its block after the prefetch pass), and an erase.
TEST(ReplicationTest, PrefetchedBatchMatchesOnePassApplication) {
  ReplEnv env = MakeEnv(3, 3);
  storage::PartitionStore* any = env.cluster->replica(0, 1);
  const storage::Table* t = any->table(0);
  Key collider = 2;
  while (t->BucketIndex(collider) != t->BucketIndex(1)) ++collider;
  Key doomed = collider + 1;
  while (t->BucketIndex(doomed) == t->BucketIndex(1)) ++doomed;
  const std::vector<ReplUpdate> load = {Put(1, 10), Put(doomed, 20)};
  ReplUpdate erase;
  erase.kind = ReplUpdate::Kind::kErase;
  erase.rid = RecordId{0, doomed};
  const std::vector<ReplUpdate> batch = {Put(1, 11), Put(1, 12),
                                         Put(collider, 30), erase};

  storage::PartitionStore reference(0, env.cluster->config().schema);
  ApplyOnePass(&reference, load);
  ApplyOnePass(&reference, batch);
  ASSERT_EQ(reference.table(0)->BucketFor(1)->num_records(), 2u);

  env.repl->Replicate(0, 0, load, 0, [] {});
  env.repl->Replicate(0, 0, batch, 0, [] {});
  env.cluster->sim()->Run();
  for (uint32_t r = 1; r < 3; ++r) {
    EXPECT_EQ(Digest(env.cluster->replica(0, r)), Digest(&reference)) << r;
  }
  // The same batch through the static entry point, on a fresh store.
  storage::PartitionStore direct(0, env.cluster->config().schema);
  cc::ReplicationManager::ApplyAtReplica(&direct, load);
  cc::ReplicationManager::ApplyAtReplica(&direct, batch);
  EXPECT_EQ(Digest(&direct), Digest(&reference));
  EXPECT_EQ(direct.Find({0, 1})->Get(0), 12);
}

TEST(ReplicationTest, ZeroReplicasCompletesImmediately) {
  ReplEnv env = MakeEnv(2, 1);
  bool done = false;
  env.repl->Replicate(0, 0, {Put(1, 5)}, 0, [&] { done = true; });
  env.cluster->sim()->Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(env.repl->batches_sent(), 0u);
}

TEST(ReplicationTest, BatchCounting) {
  ReplEnv env = MakeEnv(3, 2);
  env.repl->Replicate(0, 0, {Put(1, 1)}, 0, [] {});
  env.repl->Replicate(1, 1, {Put(2, 2)}, 0, [] {});
  env.cluster->sim()->Run();
  EXPECT_EQ(env.repl->batches_sent(), 2u);
}

// ---------------------------------------------------------------------------
// Record migration: relayout a quiesced cluster and resync its replicas.
// ---------------------------------------------------------------------------

/// Loads keys 0..n-1 into `env` under `layout`, value = key.
void LoadSequential(ReplEnv* env, uint64_t n,
                    const partition::RecordPartitioner& layout) {
  for (uint64_t k = 0; k < n; ++k) {
    storage::Record r(1);
    r.Set(0, static_cast<int64_t>(k));
    env->cluster->LoadRecord(RecordId{0, k}, r, layout);
  }
}

/// Asserts the cluster's physical placement matches `layout` exactly:
/// every record lives in the primary the layout names (hence in exactly
/// one primary), and each partition's replicas mirror its primary.
void ExpectPlacementMatches(ReplEnv* env, uint64_t n, uint32_t partitions,
                            uint32_t replication,
                            const partition::RecordPartitioner& layout) {
  for (uint64_t k = 0; k < n; ++k) {
    const RecordId rid{0, k};
    const PartitionId home = layout.PartitionOf(rid);
    for (PartitionId p = 0; p < partitions; ++p) {
      storage::Record* rec = env->cluster->primary(p)->Find(rid);
      if (p == home) {
        ASSERT_NE(rec, nullptr) << rid.ToString() << " missing at " << p;
        EXPECT_EQ(rec->Get(0), static_cast<int64_t>(k));
      } else {
        EXPECT_EQ(rec, nullptr)
            << rid.ToString() << " resident in two primaries";
      }
      for (uint32_t i = 1; i < replication; ++i) {
        storage::Record* replica = env->cluster->replica(p, i)->Find(rid);
        if (p == home) {
          ASSERT_NE(replica, nullptr)
              << rid.ToString() << " not resynced to replica " << i;
          EXPECT_EQ(replica->Get(0), static_cast<int64_t>(k));
        } else {
          EXPECT_EQ(replica, nullptr)
              << rid.ToString() << " stale at replica of " << p;
        }
      }
    }
  }
}

/// Starts the quiesced relayout path on `env`: the whole diff to `target`
/// as one relayout bucket, executed by the live migrator with no traffic.
/// The caller runs the simulator.
std::unique_ptr<migrate::LiveMigrator> StartQuiesced(
    ReplEnv* env, partition::SwappablePartitioner* live,
    std::unique_ptr<partition::RecordPartitioner> target) {
  auto migrator = std::make_unique<migrate::LiveMigrator>(
      env->cluster.get(), env->repl.get(), live);
  migrate::MigrationPlan plan = migrate::MigrationPlan::Diff(
      env->cluster.get(), *live, *target, /*num_buckets=*/1);
  const Status st = migrator->Start(std::move(plan), std::move(target));
  EXPECT_TRUE(st.ok()) << st.ToString();
  return migrator;
}

/// StartQuiesced, then runs the simulator dry.
migrate::LiveMigrationStats MigrateQuiesced(
    ReplEnv* env, partition::SwappablePartitioner* live,
    std::unique_ptr<partition::RecordPartitioner> target) {
  auto migrator = StartQuiesced(env, live, std::move(target));
  env->cluster->sim()->Run();
  EXPECT_TRUE(migrator->done());
  return migrator->stats();
}

TEST(MigrationTest, RelayoutConservesRecordsAndResyncsReplicas) {
  constexpr uint32_t kNodes = 4;
  constexpr uint32_t kRepl = 2;
  constexpr uint64_t kKeys = 256;
  ReplEnv env = MakeEnv(kNodes, kRepl);
  partition::SwappablePartitioner live(
      std::make_unique<partition::HashPartitioner>(kNodes));
  LoadSequential(&env, kKeys, live);
  ASSERT_EQ(env.cluster->TotalPrimaryRecords(), kKeys);

  // Target layout: pin the first 32 keys to partition 0 explicitly (as a
  // replan's lookup table would), everything else keeps its hash home.
  auto target = std::make_unique<partition::LookupPartitioner>(
      std::make_unique<partition::HashPartitioner>(kNodes));
  for (uint64_t k = 0; k < 32; ++k) target->Assign(RecordId{0, k}, 0);

  const migrate::LiveMigrationStats stats =
      MigrateQuiesced(&env, &live, std::move(target));
  EXPECT_GT(stats.base.moved_records, 0u);
  EXPECT_GT(stats.base.moved_bytes, 0u);
  EXPECT_GT(stats.base.sim_time, 0u);  // moves pay simulated network time
  EXPECT_EQ(stats.buckets_moved, 1u);

  EXPECT_EQ(env.cluster->TotalPrimaryRecords(), kKeys);
  ExpectPlacementMatches(&env, kKeys, kNodes, kRepl, live);
}

TEST(MigrationTest, NoopWhenLayoutAlreadyMatches) {
  ReplEnv env = MakeEnv(3, 2);
  partition::SwappablePartitioner live(
      std::make_unique<partition::HashPartitioner>(3));
  LoadSequential(&env, 64, live);
  const migrate::LiveMigrationStats stats = MigrateQuiesced(
      &env, &live, std::make_unique<partition::HashPartitioner>(3));
  EXPECT_EQ(stats.base.moved_records, 0u);
  EXPECT_EQ(stats.base.moved_bytes, 0u);
  EXPECT_EQ(env.cluster->TotalPrimaryRecords(), 64u);
}

TEST(MigrationTest, FullyReplicatedRecordsStayEverywhere) {
  ReplEnv env = MakeEnv(3, 2);
  partition::SwappablePartitioner live(
      std::make_unique<partition::HashPartitioner>(3));
  LoadSequential(&env, 64, live);
  storage::Record item(1);
  item.Set(0, 99);
  env.cluster->LoadEverywhere(RecordId{0, 1000}, item);

  // Whatever the layout says about the replicated record, it must not move
  // (it is already everywhere) and the rest must still migrate correctly.
  auto target = std::make_unique<partition::LookupPartitioner>(
      std::make_unique<partition::HashPartitioner>(3));
  target->Assign(RecordId{0, 1000}, 2);
  for (uint64_t k = 0; k < 8; ++k) target->Assign(RecordId{0, k}, 1);
  MigrateQuiesced(&env, &live, std::move(target));
  for (PartitionId p = 0; p < 3; ++p) {
    ASSERT_NE(env.cluster->primary(p)->Find(RecordId{0, 1000}), nullptr);
  }
  for (uint64_t k = 0; k < 8; ++k) {
    EXPECT_NE(env.cluster->primary(1)->Find(RecordId{0, k}), nullptr);
  }
}

TEST(MigrationTest, HeldLockDelaysTheRelayoutUntilReleased) {
  constexpr uint32_t kNodes = 3;
  constexpr uint32_t kRepl = 2;
  constexpr uint64_t kKeys = 16;
  ReplEnv env = MakeEnv(kNodes, kRepl);
  partition::HashPartitioner layout(kNodes);
  partition::SwappablePartitioner live(
      std::make_unique<partition::HashPartitioner>(kNodes));
  LoadSequential(&env, kKeys, live);
  const RecordId rid{0, 3};
  const PartitionId home = layout.PartitionOf(rid);
  storage::PartitionStore* holder = env.cluster->primary(home);
  ASSERT_TRUE(holder->TryLock(rid, storage::LockMode::kExclusive).ok());
  auto target = std::make_unique<partition::LookupPartitioner>(
      std::make_unique<partition::HashPartitioner>(kNodes));
  target->Assign(rid, (home + 1) % kNodes);

  // The batch carrying `rid` waits for its storage-bucket lock word: the
  // relayout stalls with every record still at its old home.
  auto migrator = StartQuiesced(&env, &live, std::move(target));
  sim::Scheduler* sim = env.cluster->sim();
  sim->RunUntil(sim->now() + 500 * kMicrosecond);
  EXPECT_FALSE(migrator->done());
  EXPECT_GT(migrator->stats().lock_retries, 0u);
  EXPECT_EQ(migrator->stats().base.moved_records, 0u);
  EXPECT_EQ(env.cluster->TotalPrimaryRecords(), kKeys);
  EXPECT_NE(holder->Find(rid), nullptr);

  // Releasing the lock lets the relayout finish, conserving every record.
  holder->Unlock(rid, storage::LockMode::kExclusive, false);
  sim->Run();
  ASSERT_TRUE(migrator->done());
  EXPECT_EQ(migrator->stats().base.moved_records, 1u);
  EXPECT_EQ(env.cluster->TotalPrimaryRecords(), kKeys);
  ExpectPlacementMatches(&env, kKeys, kNodes, kRepl, live);
}

}  // namespace
}  // namespace chiller
