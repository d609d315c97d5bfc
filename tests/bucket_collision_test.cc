// Regression tests: two different keys colliding into one bucket inside a
// single transaction must not self-deadlock under NO_WAIT (the bucket lock
// is recognized as already owned and the second write piggybacks on it).
#include <gtest/gtest.h>

#include <memory>

#include "cc/cluster.h"
#include "cc/occ.h"
#include "cc/twopl.h"
#include "chiller/two_region.h"
#include "partition/hot_decorator.h"
#include "partition/lookup_table.h"
#include "txn/transaction.h"

namespace chiller {
namespace {

using storage::LockMode;
using storage::Record;
using txn::Operation;
using txn::OpType;
using txn::Outcome;
using txn::Transaction;

/// Schema with a single-bucket table: every key collides.
std::vector<storage::TableSpec> OneBucketSchema() {
  return {storage::TableSpec{.name = "t", .id = 0, .num_fields = 1,
                             .buckets_per_partition = 1}};
}

Operation UpdateKey(Key k, int64_t delta) {
  Operation op;
  op.type = OpType::kUpdate;
  op.table = 0;
  op.mode = LockMode::kExclusive;
  op.key_fn = [k](const txn::TxnContext&) { return k; };
  op.on_apply = [delta](txn::TxnContext&, Record* r) { r->Add(0, delta); };
  return op;
}

struct MiniEnv {
  std::unique_ptr<cc::Cluster> cluster;
  partition::HashPartitioner partitioner{1, [](const RecordId&, uint32_t) {
                                           return PartitionId{0};
                                         }};
  std::unique_ptr<cc::ReplicationManager> repl;
  std::unique_ptr<cc::Protocol> protocol;
};

MiniEnv MakeMini(const std::string& proto) {
  MiniEnv env;
  cc::ClusterConfig cfg;
  cfg.topology = net::Topology{.num_nodes = 2,
                               .engines_per_node = 1,
                               .replication_degree = 2};
  cfg.schema = OneBucketSchema();
  env.cluster = std::make_unique<cc::Cluster>(cfg);
  for (Key k = 1; k <= 4; ++k) {
    Record r(1);
    r.Set(0, 100);
    env.cluster->LoadRecord(RecordId{0, k}, r, env.partitioner);
  }
  env.repl = std::make_unique<cc::ReplicationManager>(env.cluster.get());
  if (proto == "2pl") {
    env.protocol = std::make_unique<cc::TwoPhaseLocking>(
        env.cluster.get(), &env.partitioner, env.repl.get());
  } else if (proto == "occ") {
    env.protocol = std::make_unique<cc::Occ>(env.cluster.get(),
                                             &env.partitioner,
                                             env.repl.get());
  } else {
    env.protocol = std::make_unique<core::ChillerProtocol>(
        env.cluster.get(), &env.partitioner, env.repl.get());
  }
  return env;
}

class BucketCollisionTest : public ::testing::TestWithParam<std::string> {};

TEST_P(BucketCollisionTest, TwoKeysOneBucketCommits) {
  MiniEnv env = MakeMini(GetParam());
  auto t = std::make_shared<Transaction>();
  t->SetOps({UpdateKey(1, 5), UpdateKey(2, 7)});
  t->home = 0;
  bool done = false;
  env.protocol->Execute(t, [&] { done = true; });
  env.cluster->sim()->Run();
  ASSERT_TRUE(done);
  EXPECT_EQ(t->outcome, Outcome::kCommitted);
  EXPECT_EQ(env.cluster->primary(0)->Find({0, 1})->Get(0), 105);
  EXPECT_EQ(env.cluster->primary(0)->Find({0, 2})->Get(0), 107);
  EXPECT_EQ(env.cluster->primary(0)->locks_held(), 0u);
  // Replica converged too (piggybacked writes replicate with the rest).
  EXPECT_EQ(env.cluster->replica(0, 1)->Find({0, 1})->Get(0), 105);
  EXPECT_EQ(env.cluster->replica(0, 1)->Find({0, 2})->Get(0), 107);
}

TEST_P(BucketCollisionTest, FourKeysOneBucketCommits) {
  MiniEnv env = MakeMini(GetParam());
  auto t = std::make_shared<Transaction>();
  t->SetOps({UpdateKey(1, 1), UpdateKey(2, 2), UpdateKey(3, 3),
             UpdateKey(4, 4)});
  t->home = 0;
  bool done = false;
  env.protocol->Execute(t, [&] { done = true; });
  env.cluster->sim()->Run();
  ASSERT_TRUE(done);
  EXPECT_EQ(t->outcome, Outcome::kCommitted);
  for (Key k = 1; k <= 4; ++k) {
    EXPECT_EQ(env.cluster->primary(0)->Find({0, k})->Get(0),
              100 + static_cast<int64_t>(k));
  }
  EXPECT_EQ(env.cluster->primary(0)->locks_held(), 0u);
}

TEST_P(BucketCollisionTest, AbortReleasesEverything) {
  MiniEnv env = MakeMini(GetParam());
  auto t = std::make_shared<Transaction>();
  Operation guarded = UpdateKey(2, 7);
  guarded.guard = [](const txn::TxnContext&) { return false; };  // user abort
  t->SetOps({UpdateKey(1, 5), std::move(guarded)});
  t->home = 0;
  bool done = false;
  env.protocol->Execute(t, [&] { done = true; });
  env.cluster->sim()->Run();
  ASSERT_TRUE(done);
  EXPECT_EQ(t->outcome, Outcome::kAbortUser);
  EXPECT_EQ(env.cluster->primary(0)->Find({0, 1})->Get(0), 100);  // rolled back
  EXPECT_EQ(env.cluster->primary(0)->Find({0, 2})->Get(0), 100);
  EXPECT_EQ(env.cluster->primary(0)->locks_held(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, BucketCollisionTest,
                         ::testing::Values("2pl", "occ", "chiller"));

// Chiller's inner region commits on its own host, before the coordinator's
// outer phase 2, and that early unlock is what shortens the hot records'
// contention span. Two hot keys share one bucket, so the second inner
// access piggybacks on the first one's lock. Its write must land in the
// inner commit, before the bucket unlocks. A second transaction that
// increments both keys right after the inner commit must then see it, and
// its own increments must survive the first transaction's outer phase 2,
// on the primary and on the replica. Outer phase 2 must not apply or
// replicate the inner writes a second time.
TEST(ChillerInnerRegionTest, PiggybackedHotWriteLandsBeforeTheInnerUnlock) {
  constexpr TableId kCold = 0, kHot = 1;
  cc::ClusterConfig cfg;
  cfg.topology = net::Topology{.num_nodes = 2,
                               .engines_per_node = 1,
                               .replication_degree = 2};
  cfg.schema = {storage::TableSpec{.name = "cold", .id = kCold,
                                   .num_fields = 1},
                storage::TableSpec{.name = "hot", .id = kHot, .num_fields = 1,
                                   .buckets_per_partition = 1}};
  cc::Cluster cluster(cfg);
  // Cold records on partition 0 (the coordinator's), hot ones on 1.
  partition::HashPartitioner placement(2, [](const RecordId& rid, uint32_t) {
    return PartitionId{rid.table == 1 ? 1u : 0u};
  });
  partition::HotDecorator partitioner(&placement,
                                      {RecordId{kHot, 1}, RecordId{kHot, 2}});
  for (const RecordId rid : {RecordId{kCold, 1}, RecordId{kHot, 1},
                             RecordId{kHot, 2}}) {
    Record r(1);
    r.Set(0, 100);
    cluster.LoadRecord(rid, r, partitioner);
  }
  cc::ReplicationManager repl(&cluster);
  core::ChillerProtocol chiller(&cluster, &partitioner, &repl);

  auto MakeTxn = [](PartitionId home, std::vector<Operation> ops) {
    auto t = std::make_shared<Transaction>();
    t->SetOps(std::move(ops));
    t->home = home;
    return t;
  };
  auto UpdateIn = [](TableId table, Key k, int64_t delta) {
    Operation op = UpdateKey(k, delta);
    op.table = table;
    return op;
  };
  auto first = MakeTxn(0, {UpdateIn(kCold, 1, 1), UpdateIn(kHot, 1, 5),
                           UpdateIn(kHot, 2, 7)});
  auto second = MakeTxn(1, {UpdateIn(kHot, 1, 10), UpdateIn(kHot, 2, 20)});
  int done = 0;
  chiller.Execute(first, [&] { ++done; });

  // Run until the inner host has committed the first transaction (its
  // write to hot key 1 is in, the hot bucket unlocked) and start the
  // second one there, before the first one's outer phase 2.
  storage::PartitionStore* hot = cluster.primary(1);
  sim::Scheduler* sim = cluster.sim();
  while (hot->Find({kHot, 1})->Get(0) != 105 || hot->locks_held() != 0) {
    ASSERT_FALSE(sim->idle()) << "the first transaction never committed";
    sim->RunUntil(sim->now() + 10);
  }
  ASSERT_EQ(done, 0) << "the outer region already finished";
  chiller.Execute(second, [&] { ++done; });
  sim->Run();

  ASSERT_EQ(done, 2);
  EXPECT_EQ(first->outcome, Outcome::kCommitted);
  EXPECT_EQ(second->outcome, Outcome::kCommitted);
  EXPECT_GE(chiller.counters().two_region_txns, 1u);
  EXPECT_EQ(chiller.counters().inner_aborts, 0u);
  for (storage::PartitionStore* store : {hot, cluster.replica(1, 1)}) {
    EXPECT_EQ(store->Find({kHot, 1})->Get(0), 115);
    EXPECT_EQ(store->Find({kHot, 2})->Get(0), 127);
    EXPECT_EQ(store->locks_held(), 0u);
  }
  EXPECT_EQ(cluster.primary(0)->Find({kCold, 1})->Get(0), 101);
  EXPECT_EQ(cluster.replica(0, 1)->Find({kCold, 1})->Get(0), 101);
  // One replication round per transaction and written partition: the
  // first one's inner round (hot) and outer round (cold), and the
  // second's. Outer phase 2 does not ship the inner writes again.
  EXPECT_EQ(repl.batches_sent(), 3u);
}

}  // namespace
}  // namespace chiller
