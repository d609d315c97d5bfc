// The shared execution primitives (cc/exec_common.h) run each store step
// either on the acting engine's CPU (the record is on its own partition) or
// as the remote_op of a one-sided RDMA verb. These tests run the same
// access script both ways against the same store and require identical
// results: every Access field, the verdicts, blocked_by_migration,
// dead_groups and the store's lock words. Only the timing may differ.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "cc/cluster.h"
#include "cc/exec_common.h"
#include "partition/lookup_table.h"
#include "txn/transaction.h"

namespace chiller {
namespace {

using storage::LockMode;
using storage::Record;
using txn::Access;
using txn::Operation;
using txn::OpType;
using txn::Transaction;

constexpr TableId kWide = 0;       // many buckets: keys rarely collide
constexpr TableId kOneBucket = 1;  // one bucket: every key collides
constexpr Key kAbsent = 99;

/// Every record lives on partition 0; engine 0 reaches it locally and
/// engine 1 (the other node) through the fabric.
struct Env {
  std::unique_ptr<cc::Cluster> cluster;
  partition::HashPartitioner partitioner{
      2, [](const RecordId&, uint32_t) { return PartitionId{0}; }};
};

Env MakeEnv() {
  Env env;
  cc::ClusterConfig cfg;
  cfg.topology = net::Topology{.num_nodes = 2,
                               .engines_per_node = 1,
                               .replication_degree = 1};
  cfg.schema = {storage::TableSpec{.name = "wide", .id = kWide,
                                   .num_fields = 1,
                                   .buckets_per_partition = 1024},
                storage::TableSpec{.name = "one", .id = kOneBucket,
                                   .num_fields = 1,
                                   .buckets_per_partition = 1}};
  env.cluster = std::make_unique<cc::Cluster>(cfg);
  for (TableId table : {kWide, kOneBucket}) {
    for (Key k = 1; k <= 4; ++k) {
      Record r(1);
      r.Set(0, 100);
      env.cluster->LoadRecord(RecordId{table, k}, r, env.partitioner);
    }
  }
  return env;
}

Operation Update(TableId table, Key k, int64_t delta) {
  Operation op;
  op.type = OpType::kUpdate;
  op.table = table;
  op.mode = LockMode::kExclusive;
  op.key_fn = [k](const txn::TxnContext&) { return k; };
  op.on_apply = [delta](txn::TxnContext&, Record* r) { r->Add(0, delta); };
  return op;
}

Operation Read(TableId table, Key k) {
  Operation op;
  op.type = OpType::kRead;
  op.table = table;
  op.key_fn = [k](const txn::TxnContext&) { return k; };
  op.on_read = [](txn::TxnContext& ctx, const Record& r) {
    ctx.SetVar(0, r.Get(0));
  };
  return op;
}

/// A read of `kAbsent` that may miss; a miss kills skip group 2.
Operation ProbeAbsent() {
  Operation op = Read(kWide, kAbsent);
  op.on_read = nullptr;
  op.may_be_missing = true;
  op.skip_group = 2;
  return op;
}

enum class Prim { kLockAndFetch, kFetchVersioned, kValidateLockWrite,
                  kValidateRead };

struct Step {
  Prim prim;
  size_t op;
  /// Runs against the cluster just before the step (another transaction's
  /// interference, or a relayout gate).
  std::function<void(cc::Cluster*)> before;
};

struct Case {
  std::string name;
  std::function<std::vector<Operation>()> ops;
  std::vector<Step> steps;
  std::vector<bool> verdicts;  ///< expected per step
  /// Checks the (local) result beyond the verdicts: the case really
  /// exercised what it is named after.
  std::function<void(const Transaction&)> check;
};

// Names the case in test listings instead of dumping its bytes.
void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

/// Every Access field that a store or finish step may write.
auto Fields(const Access& a) {
  return std::make_tuple(a.key_resolved, a.rid.table, a.rid.key, a.partition,
                         a.lock_held, a.fetched, a.applied, a.alias_of,
                         a.missing, a.bucket_piggyback, a.wrote,
                         a.observed_version, a.store_ok,
                         a.local_copy.num_fields() > 0
                             ? a.local_copy.Get(0)
                             : int64_t{-1});
}

struct Result {
  std::vector<bool> verdicts;
  std::shared_ptr<Transaction> t;
  std::vector<uint64_t> lock_words;  ///< every loaded key's bucket word
  size_t locks_held = 0;
  SimTime elapsed = 0;
};

void LockExclusive(cc::Cluster* c, TableId table, Key k) {
  ASSERT_TRUE(c->primary(0)->TryLock({table, k}, LockMode::kExclusive).ok());
}

/// Another transaction commits a write to (table, k): the version moves.
void BumpVersion(cc::Cluster* c, TableId table, Key k) {
  LockExclusive(c, table, k);
  c->primary(0)->Unlock({table, k}, LockMode::kExclusive, /*modified=*/true);
}

void StartRelayout(cc::Cluster* c) {
  c->bucket_locks()->BeginEpoch(1);
  c->bucket_locks()->Acquire(0);  // every record's relayout bucket
}

Result RunCase(const Case& c, EngineId acting) {
  Env env = MakeEnv();
  cc::Cluster* cluster = env.cluster.get();
  // An earlier commit of key 1 moves its version off zero, so a check that
  // ignored the stored version could not pass by accident.
  BumpVersion(cluster, kWide, 1);
  auto t = std::make_shared<Transaction>();
  t->SetOps(c.ops());
  t->home = acting;
  const cc::exec::Deps d{cluster, &env.partitioner};
  cc::Engine* eng = cluster->engine(acting);
  Result r;
  for (const Step& s : c.steps) {
    if (s.before) s.before(cluster);
    if (!t->accesses[s.op].key_resolved) t->ResolveKey(s.op);
    t->accesses[s.op].partition = cc::exec::ResolvePartition(d, *t, s.op);
    bool done = false, ok = false;
    auto verdict = [&](bool v) {
      ok = v;
      done = true;
    };
    switch (s.prim) {
      case Prim::kLockAndFetch:
        cc::exec::LockAndFetch(d, t.get(), s.op, eng, /*apply_inline=*/true,
                               verdict);
        break;
      case Prim::kFetchVersioned:
        cc::exec::FetchVersioned(d, t.get(), s.op, eng,
                                 [&] { verdict(!t->blocked_by_migration); });
        break;
      case Prim::kValidateLockWrite:
        cc::exec::ValidateLockWrite(d, t.get(), s.op, eng, verdict);
        break;
      case Prim::kValidateRead:
        cc::exec::ValidateRead(d, t.get(), s.op, eng, verdict);
        break;
    }
    cluster->sim()->Run();
    EXPECT_TRUE(done) << c.name << " step on op " << s.op;
    r.verdicts.push_back(ok);
  }
  for (TableId table : {kWide, kOneBucket}) {
    for (Key k : {Key{1}, Key{2}, Key{3}, Key{4}, kAbsent}) {
      r.lock_words.push_back(cluster->primary(0)
                                 ->table(table)
                                 ->BucketFor(k)
                                 ->lock_word());
    }
  }
  r.locks_held = cluster->primary(0)->locks_held();
  r.elapsed = cluster->sim()->now();
  r.t = std::move(t);
  return r;
}

std::vector<Case> Cases() {
  using Lf = std::vector<Operation>;
  const auto upd_k1 = [] { return Lf{Update(kWide, 1, 5)}; };
  const auto read_k1 = [] { return Lf{Read(kWide, 1)}; };
  const auto probe = [] { return Lf{ProbeAbsent(), Update(kWide, 2, 1)}; };
  const auto alias = [] { return Lf{Update(kWide, 1, 5), Update(kWide, 1, 7)}; };
  const auto collide = [] {
    return Lf{Update(kOneBucket, 1, 5), Update(kOneBucket, 2, 7)};
  };
  const auto collide_read = [] {
    return Lf{Update(kOneBucket, 1, 5), Read(kOneBucket, 2)};
  };
  const auto lock_k1 = [](cc::Cluster* c) { LockExclusive(c, kWide, 1); };
  const auto bump_k1 = [](cc::Cluster* c) { BumpVersion(c, kWide, 1); };
  const auto relayout = [](cc::Cluster* c) { StartRelayout(c); };
  const auto holds = [](size_t i) {
    return [i](const Transaction& t) { EXPECT_TRUE(t.accesses[i].lock_held); };
  };
  const auto missing = [](const Transaction& t) {
    EXPECT_TRUE(t.accesses[0].missing);
    EXPECT_EQ(t.dead_groups, std::set<int>{2});
  };
  const auto aliased = [](const Transaction& t) {
    EXPECT_EQ(t.accesses[1].alias_of, 0);
    EXPECT_EQ(t.accesses[0].local_copy.Get(0), 112);
  };
  const auto piggybacked = [](const Transaction& t) {
    EXPECT_TRUE(t.accesses[0].lock_held);
    EXPECT_TRUE(t.accesses[1].bucket_piggyback);
    EXPECT_FALSE(t.accesses[1].lock_held);
  };
  const auto blocked = [](const Transaction& t) {
    EXPECT_TRUE(t.blocked_by_migration);
  };
  const auto nothing_held = [](const Transaction& t) {
    EXPECT_FALSE(t.accesses[0].lock_held);
  };
  const Prim laf = Prim::kLockAndFetch, fv = Prim::kFetchVersioned,
             vlw = Prim::kValidateLockWrite, vr = Prim::kValidateRead;
  return {
      {"LockAndFetchPresent", upd_k1, {{laf, 0, {}}}, {true}, holds(0)},
      {"LockAndFetchMissing", probe, {{laf, 0, {}}}, {true}, missing},
      {"LockAndFetchAlias", alias, {{laf, 0, {}}, {laf, 1, {}}},
       {true, true}, aliased},
      {"LockAndFetchPiggyback", collide, {{laf, 0, {}}, {laf, 1, {}}},
       {true, true}, piggybacked},
      {"LockAndFetchConflict", upd_k1, {{laf, 0, lock_k1}}, {false},
       nothing_held},
      {"LockAndFetchMigrationBlocked", upd_k1, {{laf, 0, relayout}}, {false},
       blocked},
      {"FetchVersionedPresent", upd_k1, {{fv, 0, {}}}, {true},
       [](const Transaction& t) {
         EXPECT_GT(t.accesses[0].observed_version, 0u);
         EXPECT_EQ(t.accesses[0].local_copy.Get(0), 105);
       }},
      {"FetchVersionedMissing", probe, {{fv, 0, {}}}, {true}, missing},
      {"FetchVersionedAlias", alias, {{fv, 0, {}}, {fv, 1, {}}},
       {true, true}, aliased},
      {"FetchVersionedUnderForeignLock", upd_k1, {{fv, 0, lock_k1}}, {true},
       nothing_held},
      {"FetchVersionedMigrationBlocked", upd_k1, {{fv, 0, relayout}}, {false},
       blocked},
      {"ValidateLockWritePresent", upd_k1, {{fv, 0, {}}, {vlw, 0, {}}},
       {true, true}, holds(0)},
      {"ValidateLockWriteVersionMoved", upd_k1,
       {{fv, 0, {}}, {vlw, 0, bump_k1}}, {true, false}, nothing_held},
      {"ValidateLockWriteConflict", upd_k1, {{fv, 0, {}}, {vlw, 0, lock_k1}},
       {true, false}, nothing_held},
      {"ValidateLockWritePiggyback", collide,
       {{fv, 0, {}}, {fv, 1, {}}, {vlw, 0, {}}, {vlw, 1, {}}},
       {true, true, true, true}, piggybacked},
      {"ValidateLockWriteMigrationBlocked", upd_k1,
       {{fv, 0, {}}, {vlw, 0, relayout}}, {true, false}, blocked},
      {"ValidateReadPresent", read_k1, {{fv, 0, {}}, {vr, 0, {}}},
       {true, true}, nothing_held},
      {"ValidateReadMissing", probe, {{fv, 0, {}}, {vr, 0, {}}},
       {true, true}, missing},
      {"ValidateReadForeignWriteLock", read_k1,
       {{fv, 0, {}}, {vr, 0, lock_k1}}, {true, false}, nothing_held},
      {"ValidateReadOwnBucketLock", collide_read,
       {{fv, 0, {}}, {fv, 1, {}}, {vlw, 0, {}}, {vr, 1, {}}},
       {true, true, true, true}, holds(0)},
      {"ValidateReadMigrationBlocked", read_k1,
       {{fv, 0, {}}, {vr, 0, relayout}}, {true, false}, blocked},
  };
}

class LocalRemoteEquivalenceTest : public ::testing::TestWithParam<Case> {};

TEST_P(LocalRemoteEquivalenceTest, SameStateEitherWay) {
  const Case& c = GetParam();
  const Result local = RunCase(c, /*acting=*/0);
  const Result remote = RunCase(c, /*acting=*/1);

  EXPECT_EQ(local.verdicts, c.verdicts);
  EXPECT_EQ(remote.verdicts, c.verdicts);
  c.check(*local.t);
  for (size_t i = 0; i < local.t->accesses.size(); ++i) {
    EXPECT_EQ(Fields(local.t->accesses[i]), Fields(remote.t->accesses[i]))
        << "access " << i;
  }
  EXPECT_EQ(local.t->blocked_by_migration, remote.t->blocked_by_migration);
  EXPECT_EQ(local.t->dead_groups, remote.t->dead_groups);
  EXPECT_EQ(local.lock_words, remote.lock_words);
  EXPECT_EQ(local.locks_held, remote.locks_held);
  // The remote run really crossed the fabric.
  EXPECT_GT(remote.elapsed, local.elapsed);
}

INSTANTIATE_TEST_SUITE_P(
    Primitives, LocalRemoteEquivalenceTest, ::testing::ValuesIn(Cases()),
    [](const ::testing::TestParamInfo<Case>& info) { return info.param.name; });

}  // namespace
}  // namespace chiller
