// Tests for the transaction framework: op validation, dependency analysis,
// and the two-region run-time decision (paper Sections 3.2-3.3), exercised
// on synthetic op lists and on the Figure 4 flight-booking procedure.
#include <gtest/gtest.h>

#include <algorithm>

#include "txn/dependency_graph.h"
#include "txn/operation.h"
#include "txn/transaction.h"
#include "workload/flight.h"

namespace chiller::txn {
namespace {

using storage::LockMode;
using workload::FlightPartitioner;
using workload::FlightSchema;

/// A minimal update op on table 0 keyed by param `p`.
Operation SimpleOp(int tmpl, Key key, OpType type = OpType::kUpdate) {
  Operation op;
  op.template_id = tmpl;
  op.type = type;
  op.table = 0;
  op.mode = type == OpType::kRead ? LockMode::kShared : LockMode::kExclusive;
  op.key_fn = [key](const TxnContext&) { return key; };
  if (type == OpType::kUpdate) {
    op.on_apply = [](TxnContext&, storage::Record* r) { r->Add(0, 1); };
  }
  if (type == OpType::kInsert) {
    op.make_record = [](const TxnContext&) { return storage::Record(1); };
  }
  return op;
}

Transaction MakeTxn(std::vector<Operation> ops) {
  Transaction t;
  t.SetOps(std::move(ops));
  return t;
}

// ---------- Validate ----------

TEST(ValidateTest, AcceptsWellFormed) {
  auto t = MakeTxn({SimpleOp(0, 1), SimpleOp(1, 2)});
  EXPECT_TRUE(DependencyAnalysis::Validate(t.ops).ok());
}

TEST(ValidateTest, RejectsForwardPkDep) {
  auto ops = std::vector<Operation>{SimpleOp(0, 1), SimpleOp(1, 2)};
  ops[0].pk_deps = {1};  // depends on a later op
  EXPECT_TRUE(DependencyAnalysis::Validate(ops).IsInvalidArgument());
}

TEST(ValidateTest, RejectsSelfVDep) {
  auto ops = std::vector<Operation>{SimpleOp(0, 1)};
  ops[0].v_deps = {0};
  EXPECT_TRUE(DependencyAnalysis::Validate(ops).IsInvalidArgument());
}

TEST(ValidateTest, RejectsInsertWithoutMakeRecord) {
  auto ops = std::vector<Operation>{SimpleOp(0, 1, OpType::kInsert)};
  ops[0].make_record = nullptr;
  EXPECT_TRUE(DependencyAnalysis::Validate(ops).IsInvalidArgument());
}

TEST(ValidateTest, RejectsSharedModeWrite) {
  auto ops = std::vector<Operation>{SimpleOp(0, 1)};
  ops[0].mode = LockMode::kShared;
  EXPECT_TRUE(DependencyAnalysis::Validate(ops).IsInvalidArgument());
}

TEST(ValidateTest, RejectsCoLocationWithoutParent) {
  auto ops = std::vector<Operation>{SimpleOp(0, 1)};
  ops[0].co_located_with_dep = true;
  EXPECT_TRUE(DependencyAnalysis::Validate(ops).IsInvalidArgument());
}

TEST(ValidateTest, RejectsMissingKeyFn) {
  auto ops = std::vector<Operation>{SimpleOp(0, 1)};
  ops[0].key_fn = nullptr;
  EXPECT_TRUE(DependencyAnalysis::Validate(ops).IsInvalidArgument());
}

TEST(PkChildrenTest, InvertsEdges) {
  auto ops = std::vector<Operation>{SimpleOp(0, 1), SimpleOp(1, 2),
                                    SimpleOp(2, 3)};
  ops[1].pk_deps = {0};
  ops[2].pk_deps = {0, 1};
  const OpList list(std::move(ops), /*num_vars=*/0);
  auto children = [&](size_t i) {
    auto c = list.PkChildren(i);
    return std::vector<int>(c.begin(), c.end());
  };
  EXPECT_EQ(children(0), (std::vector<int>{1, 2}));
  EXPECT_EQ(children(1), (std::vector<int>{2}));
  EXPECT_TRUE(children(2).empty());
  // No pk-deps at all: every op has no children.
  const OpList flat({SimpleOp(0, 1), SimpleOp(1, 2)}, /*num_vars=*/0);
  EXPECT_TRUE(flat.PkChildren(0).empty());
  EXPECT_TRUE(flat.PkChildren(1).empty());
}

// ---------- Plan on synthetic transactions ----------

/// Hot iff the key is below `hot_below`. Each test places its accesses by
/// hand before planning.
HotFn KeysBelow(Key hot_below) {
  return [hot_below](const RecordId& rid) { return rid.key < hot_below; };
}

TEST(PlanTest, NoHotRecordsFallsBack) {
  auto t = MakeTxn({SimpleOp(0, 200), SimpleOp(1, 301)});
  t.ResolveReadyKeys();
  for (auto& a : t.accesses) a.partition = a.rid.key % 4;
  auto plan = DependencyAnalysis::Plan(t, KeysBelow(100));
  EXPECT_FALSE(plan.two_region);
  EXPECT_EQ(plan.fallback_reason, "no eligible hot records");
}

TEST(PlanTest, SingleHotRecordBecomesInner) {
  auto t = MakeTxn({SimpleOp(0, 5), SimpleOp(1, 202), SimpleOp(2, 303)});
  t.ResolveReadyKeys();
  for (auto& a : t.accesses) a.partition = a.rid.key % 4;
  auto plan = DependencyAnalysis::Plan(t, KeysBelow(100));
  ASSERT_TRUE(plan.two_region);
  EXPECT_EQ(plan.inner_host, 5u % 4);
  EXPECT_EQ(plan.inner_ops, (std::vector<int>{0}));
  EXPECT_EQ(plan.outer_ops, (std::vector<int>{1, 2}));
  EXPECT_TRUE(plan.deferred_apply.empty());
}

TEST(PlanTest, HostWithMostHotRecordsWins) {
  // Hot keys 4 and 8 on partition 0 (two records), hot key 5 on partition 1.
  auto t = MakeTxn({SimpleOp(0, 4), SimpleOp(1, 8), SimpleOp(2, 5)});
  t.ResolveReadyKeys();
  for (auto& a : t.accesses) a.partition = a.rid.key % 4;
  auto plan = DependencyAnalysis::Plan(t, KeysBelow(100));
  ASSERT_TRUE(plan.two_region);
  EXPECT_EQ(plan.inner_host, 0u);
  EXPECT_EQ(plan.inner_ops, (std::vector<int>{0, 1}));
  // The hot record on partition 1 must stay in the outer region: at most
  // one inner host per transaction (Section 2.2).
  EXPECT_EQ(plan.outer_ops, (std::vector<int>{2}));
}

TEST(PlanTest, TiedHostsGoToTheLowestPartition) {
  // One hot record each on partitions 1 and 0, partition 1 seen first.
  auto t = MakeTxn({SimpleOp(0, 5), SimpleOp(1, 4)});
  t.ResolveReadyKeys();
  for (auto& a : t.accesses) a.partition = a.rid.key % 4;
  auto plan = DependencyAnalysis::Plan(t, KeysBelow(100));
  ASSERT_TRUE(plan.two_region);
  EXPECT_EQ(plan.inner_host, 0u);
  EXPECT_EQ(plan.inner_ops, (std::vector<int>{1}));
}

TEST(PlanTest, ColdOpOnInnerHostJoinsInner) {
  // Key 4 hot on partition 0; key 8 cold but also on partition 0.
  auto t = MakeTxn({SimpleOp(0, 4), SimpleOp(1, 8)});
  t.ResolveReadyKeys();
  for (auto& a : t.accesses) a.partition = a.rid.key % 4;
  auto plan = DependencyAnalysis::Plan(t, KeysBelow(5));
  ASSERT_TRUE(plan.two_region);
  EXPECT_EQ(plan.inner_ops, (std::vector<int>{0, 1}));
}

TEST(PlanTest, HotRecordWithRemoteChildStaysOuter) {
  // Op 1's key derives from hot op 0 but resolves to another partition and
  // carries no co-location guarantee: op 0 cannot enter an inner region
  // (Section 3.3 step 1).
  auto ops = std::vector<Operation>{SimpleOp(0, 4), SimpleOp(1, 0)};
  ops[1].pk_deps = {0};
  ops[1].key_fn = [](const TxnContext&) { return Key{7}; };
  auto t = MakeTxn(std::move(ops));
  t.ResolveReadyKeys();  // only op 0 resolves
  ASSERT_TRUE(t.accesses[0].key_resolved);
  ASSERT_FALSE(t.accesses[1].key_resolved);
  t.accesses[0].partition = 0;
  auto plan = DependencyAnalysis::Plan(t, KeysBelow(5));
  EXPECT_FALSE(plan.two_region);
  EXPECT_EQ(plan.fallback_reason, "no eligible hot records");
}

TEST(PlanTest, CoLocatedChildFollowsParentIntoInner) {
  auto ops = std::vector<Operation>{SimpleOp(0, 4), SimpleOp(1, 0)};
  ops[1].pk_deps = {0};
  ops[1].co_located_with_dep = true;
  auto t = MakeTxn(std::move(ops));
  t.ResolveReadyKeys();
  t.accesses[0].partition = 0;
  auto plan = DependencyAnalysis::Plan(t, KeysBelow(5));
  ASSERT_TRUE(plan.two_region);
  EXPECT_EQ(plan.inner_ops, (std::vector<int>{0, 1}));
}

TEST(PlanTest, OuterGuardOnInnerReadForcesFallback) {
  // Op 1 (cold, remote partition) has a guard that value-depends on hot
  // op 0's read: evaluating it after the inner region committed could
  // demand a post-commit abort, so the planner must fall back.
  auto ops = std::vector<Operation>{SimpleOp(0, 4), SimpleOp(1, 201)};
  ops[1].v_deps = {0};
  ops[1].guard = [](const TxnContext&) { return true; };
  auto t = MakeTxn(std::move(ops));
  t.ResolveReadyKeys();
  for (auto& a : t.accesses) a.partition = a.rid.key % 4;
  auto plan = DependencyAnalysis::Plan(t, KeysBelow(5));
  EXPECT_FALSE(plan.two_region);
  EXPECT_EQ(plan.fallback_reason, "outer guard depends on inner read");
}

TEST(PlanTest, OuterWriteWithInnerVDepIsDeferred) {
  auto ops = std::vector<Operation>{SimpleOp(0, 4), SimpleOp(1, 201)};
  ops[1].v_deps = {0};
  auto t = MakeTxn(std::move(ops));
  t.ResolveReadyKeys();
  for (auto& a : t.accesses) a.partition = a.rid.key % 4;
  auto plan = DependencyAnalysis::Plan(t, KeysBelow(5));
  ASSERT_TRUE(plan.two_region);
  EXPECT_EQ(plan.deferred_apply, (std::vector<int>{1}));
}

TEST(PlanTest, AtMostOneInnerHostProperty) {
  // Property sweep: whatever the key mix, all inner ops share one partition.
  for (uint64_t seed = 0; seed < 50; ++seed) {
    Rng rng(seed);
    std::vector<Operation> ops;
    for (int i = 0; i < 8; ++i) {
      ops.push_back(SimpleOp(i, rng.Uniform(300)));
    }
    auto t = MakeTxn(std::move(ops));
    t.ResolveReadyKeys();
    for (auto& a : t.accesses) a.partition = a.rid.key % 5;
    auto plan = DependencyAnalysis::Plan(t, KeysBelow(50));
    if (!plan.two_region) continue;
    for (int i : plan.inner_ops) {
      EXPECT_EQ(t.accesses[static_cast<size_t>(i)].partition,
                plan.inner_host);
    }
    // inner + outer is a partition of all ops
    EXPECT_EQ(plan.inner_ops.size() + plan.outer_ops.size(), t.ops.size());
  }
}

// ---------- The Figure 4 flight procedure ----------

TEST(FlightPlanTest, ValidatesAndMatchesPaperDecomposition) {
  // Pick a flight on partition 1 and a customer that hashes elsewhere.
  FlightPartitioner part(4, /*hot_flights=*/10);
  const Key flight = 5;  // partition 1, hot
  Key cust = 0;
  while (part.PartitionOf({FlightSchema::kCustomer, cust}) ==
         part.PartitionOf({FlightSchema::kFlight, flight})) {
    ++cust;
  }
  auto t = workload::MakeBookingTxn(flight, cust);
  ASSERT_TRUE(DependencyAnalysis::Validate(t->ops).ok());

  t->ResolveReadyKeys();
  for (auto& a : t->accesses) {
    if (a.key_resolved) a.partition = part.PartitionOf(a.rid);
  }
  // tread (op 2) and sins (op 5) have unresolved keys before execution.
  EXPECT_FALSE(t->accesses[2].key_resolved);
  EXPECT_FALSE(t->accesses[5].key_resolved);

  auto plan = DependencyAnalysis::Plan(
      *t, [&](const RecordId& r) { return part.IsHot(r); });
  ASSERT_TRUE(plan.two_region) << plan.fallback_reason;
  EXPECT_EQ(plan.inner_host, part.PartitionOf({FlightSchema::kFlight, flight}));
  // Inner: fread (0), fupd (3), sins (5). Outer: cread (1), tread (2),
  // cupd (4) with cupd deferred to phase 2 — the paper's decomposition.
  EXPECT_EQ(plan.inner_ops, (std::vector<int>{0, 3, 5}));
  EXPECT_EQ(plan.outer_ops, (std::vector<int>{1, 2, 4}));
  EXPECT_EQ(plan.deferred_apply, (std::vector<int>{4}));
}

TEST(FlightPlanTest, ColdFlightRunsNormally) {
  FlightPartitioner part(4, /*hot_flights=*/10);
  auto t = workload::MakeBookingTxn(/*flight=*/500, /*cust=*/3);
  t->ResolveReadyKeys();
  for (auto& a : t->accesses) {
    if (a.key_resolved) a.partition = part.PartitionOf(a.rid);
  }
  auto plan = DependencyAnalysis::Plan(
      *t, [&](const RecordId& r) { return part.IsHot(r); });
  EXPECT_FALSE(plan.two_region);
}

TEST(FlightPlanTest, SeatsCoLocatedWithFlight) {
  FlightPartitioner part(8, 10);
  for (Key f = 0; f < 100; ++f) {
    const PartitionId pf = part.PartitionOf({FlightSchema::kFlight, f});
    for (Key s = 0; s < 5; ++s) {
      EXPECT_EQ(part.PartitionOf(
                    {FlightSchema::kSeats, f * FlightSchema::kSeatStride + s}),
                pf);
    }
  }
}

}  // namespace
}  // namespace chiller::txn
