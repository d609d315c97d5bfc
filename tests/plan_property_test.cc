// Property sweep: the two-region planner must uphold its invariants on
// arbitrary operation DAGs, not just the workloads shipped in this repo.
// Randomized, seed-parameterized (deterministic per seed).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <vector>

#include "common/random.h"
#include "txn/dependency_graph.h"
#include "txn/operation.h"
#include "txn/transaction.h"

namespace chiller::txn {
namespace {

using storage::LockMode;

constexpr uint32_t kPartitions = 4;
constexpr Key kHotBelow = 30;
constexpr Key kKeySpace = 200;

PartitionId PartOf(const RecordId& rid) {
  return static_cast<PartitionId>(rid.key % kPartitions);
}
bool HotFnImpl(const RecordId& rid) { return rid.key < kHotBelow; }

/// Builds a random but well-formed transaction: every op reads or updates
/// one record; some ops pk-depend on earlier ops (key unknown until then),
/// optionally with a co-location guarantee; some ops carry guards with
/// v-deps on earlier ops.
Transaction RandomTxn(uint64_t seed) {
  Rng rng(seed);
  const size_t n = 3 + rng.Uniform(10);
  Transaction t;
  std::vector<Operation> ops;
  for (size_t i = 0; i < n; ++i) {
    Operation op;
    op.template_id = static_cast<int>(i);
    op.type = rng.Bernoulli(0.5) ? OpType::kUpdate : OpType::kRead;
    op.mode = op.type == OpType::kUpdate ? LockMode::kExclusive
                                         : LockMode::kShared;
    op.table = 0;
    const Key key = rng.Uniform(kKeySpace);
    if (i > 0 && rng.Bernoulli(0.25)) {
      // pk-dep on a random earlier op; derived key mimics "key read from
      // the parent record".
      const int parent = static_cast<int>(rng.Uniform(i));
      op.pk_deps = {parent};
      op.co_located_with_dep = rng.Bernoulli(0.5);
      op.key_fn = [key](const TxnContext&) { return key; };
    } else {
      op.key_fn = [key](const TxnContext&) { return key; };
    }
    if (i > 0 && rng.Bernoulli(0.2)) {
      op.v_deps = {static_cast<int>(rng.Uniform(i))};
      if (rng.Bernoulli(0.5)) {
        op.guard = [](const TxnContext&) { return true; };
      }
    }
    if (op.type == OpType::kUpdate) {
      op.on_apply = [](TxnContext&, storage::Record* r) { r->Add(0, 1); };
    }
    ops.push_back(std::move(op));
  }
  t.SetOps(std::move(ops));
  t.ResolveReadyKeys();
  for (auto& a : t.accesses) {
    if (a.key_resolved) a.partition = PartOf(a.rid);
  }
  return t;
}

/// The planner's former per-attempt children lists, kept as the reference
/// for the shared index: children[i] = the ops with a pk-dep on op i, found
/// by inverting every op's pk_deps.
std::vector<std::vector<int>> InvertedPkDeps(std::span<const Operation> ops) {
  std::vector<std::vector<int>> children(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    for (int d : ops[i].pk_deps) {
      children[static_cast<size_t>(d)].push_back(static_cast<int>(i));
    }
  }
  return children;
}

void ExpectIndexMatchesReference(const Transaction& t) {
  const auto reference = InvertedPkDeps(t.ops);
  for (size_t i = 0; i < t.ops.size(); ++i) {
    const auto c = t.op_list()->PkChildren(i);
    EXPECT_EQ(std::vector<int>(c.begin(), c.end()), reference[i])
        << "op " << i;
  }
}

class PlanPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PlanPropertyTest, SharedChildrenIndexMatchesInvertedLists) {
  ExpectIndexMatchesReference(RandomTxn(GetParam()));
  // RandomTxn gives each op at most one parent; give some up to three.
  Rng rng(GetParam() + 1000);
  std::vector<Operation> ops(3 + rng.Uniform(20));
  for (size_t i = 1; i < ops.size(); ++i) {
    for (uint64_t k = rng.Uniform(4); k > 0; --k) {
      ops[i].pk_deps.push_back(static_cast<int>(rng.Uniform(i)));
    }
  }
  Transaction multi;
  multi.SetOps(std::move(ops));
  ExpectIndexMatchesReference(multi);
}

TEST_P(PlanPropertyTest, InvariantsHold) {
  Transaction t = RandomTxn(GetParam());
  ASSERT_TRUE(DependencyAnalysis::Validate(t.ops).ok());
  const TwoRegionPlan plan =
      DependencyAnalysis::Plan(t, HotFnImpl);

  if (!plan.two_region) {
    // Fallback plans carry no op lists (plain 2PL executes everything).
    EXPECT_TRUE(plan.inner_ops.empty());
    EXPECT_FALSE(plan.fallback_reason.empty());
    return;
  }

  // (1) inner + outer is an order-preserving partition of all ops.
  std::set<int> seen;
  for (int i : plan.inner_ops) EXPECT_TRUE(seen.insert(i).second);
  for (int i : plan.outer_ops) EXPECT_TRUE(seen.insert(i).second);
  EXPECT_EQ(seen.size(), t.ops.size());
  EXPECT_TRUE(std::is_sorted(plan.inner_ops.begin(), plan.inner_ops.end()));
  EXPECT_TRUE(std::is_sorted(plan.outer_ops.begin(), plan.outer_ops.end()));

  std::set<int> inner(plan.inner_ops.begin(), plan.inner_ops.end());

  // (2) single inner host: every resolved inner op lives on it; unresolved
  // inner ops carry a co-location guarantee whose parent is inner.
  bool any_hot_inner = false;
  for (int i : plan.inner_ops) {
    const auto& acc = t.accesses[static_cast<size_t>(i)];
    if (acc.key_resolved) {
      EXPECT_EQ(acc.partition, plan.inner_host);
      any_hot_inner |= HotFnImpl(acc.rid);
    } else {
      EXPECT_TRUE(t.ops[static_cast<size_t>(i)].co_located_with_dep);
      EXPECT_TRUE(
          inner.contains(t.ops[static_cast<size_t>(i)].pk_deps.front()));
    }
  }
  // (3) the inner host was chosen because of hot records.
  EXPECT_TRUE(any_hot_inner);

  for (int i : plan.outer_ops) {
    const Operation& op = t.ops[static_cast<size_t>(i)];
    // (4) no outer op's key derives from an inner read.
    for (int d : op.pk_deps) EXPECT_FALSE(inner.contains(d));
    // (5) no outer guard depends on an inner read (no post-commit aborts).
    if (op.guard) {
      for (int d : op.v_deps) EXPECT_FALSE(inner.contains(d));
    }
  }

  // (6) deferred applies are outer writes that value-depend on inner ops.
  for (int i : plan.deferred_apply) {
    EXPECT_FALSE(inner.contains(i));
    const Operation& op = t.ops[static_cast<size_t>(i)];
    EXPECT_TRUE(op.IsWrite());
    bool depends_on_inner = false;
    for (int d : op.v_deps) depends_on_inner |= inner.contains(d);
    EXPECT_TRUE(depends_on_inner);
  }
}

TEST_P(PlanPropertyTest, NoHotMeansFallback) {
  Transaction t = RandomTxn(GetParam());
  const TwoRegionPlan plan = DependencyAnalysis::Plan(
      t, [](const RecordId&) { return false; });
  EXPECT_FALSE(plan.two_region);
}

TEST_P(PlanPropertyTest, PlanIsDeterministic) {
  Transaction t1 = RandomTxn(GetParam());
  Transaction t2 = RandomTxn(GetParam());
  const auto p1 = DependencyAnalysis::Plan(t1, HotFnImpl);
  const auto p2 = DependencyAnalysis::Plan(t2, HotFnImpl);
  EXPECT_EQ(p1.two_region, p2.two_region);
  EXPECT_EQ(p1.inner_host, p2.inner_host);
  EXPECT_EQ(p1.inner_ops, p2.inner_ops);
  EXPECT_EQ(p1.outer_ops, p2.outer_ops);
  EXPECT_EQ(p1.deferred_apply, p2.deferred_apply);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanPropertyTest,
                         ::testing::Range<uint64_t>(0, 40));

}  // namespace
}  // namespace chiller::txn
