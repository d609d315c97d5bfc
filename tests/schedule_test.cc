// Tests for the admission-scheduling stage (schedule/scheduler.h): the
// registry, classification and routing of the built-in policies, the shed
// victim rule, validation plumbing, and the end-to-end behavior of
// scheduled admission under the open and batched load models.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "runner/runner.h"
#include "schedule/scheduler.h"
#include "workload/ycsb.h"

namespace chiller::schedule {
namespace {

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

/// A transaction touching exactly `keys` on the ycsb main table, with
/// accesses initialized and keys resolved, the state Classify() requires
/// (Driver::Draw produces the same shape).
txn::Transaction MakeTxn(
    const std::vector<std::pair<Key, bool>>& keys /* (key, is_write) */) {
  txn::Transaction t;
  for (const auto& [key, is_write] : keys) {
    txn::Operation op;
    op.type = is_write ? txn::OpType::kUpdate : txn::OpType::kRead;
    op.table = workload::ycsb::kMain;
    op.mode = is_write ? storage::LockMode::kExclusive
                       : storage::LockMode::kShared;
    op.key_fn = [key](const txn::TxnContext&) { return key; };
    t.ops.push_back(std::move(op));
  }
  t.InitAccesses();
  t.ResolveReadyKeys();
  return t;
}

/// 4 engines over 4 partitions of 100 keys each; keys {p*100, p*100+1}
/// are partition p's hot set.
SchedulerContext TestContext(const partition::RecordPartitioner* part,
                             uint32_t classes = 0) {
  SchedulerContext ctx;
  ctx.num_engines = 4;
  ctx.classes = classes;
  ctx.partitioner = part;
  return ctx;
}

std::unique_ptr<Scheduler> MustMake(const std::string& name,
                                    const SchedulerContext& ctx) {
  auto sched = SchedulerRegistry::Global().Make(name, ctx);
  EXPECT_TRUE(sched.ok()) << sched.status().ToString();
  return std::move(sched).value();
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(SchedulerRegistryTest, BuiltinsAreRegistered) {
  auto& registry = SchedulerRegistry::Global();
  for (const char* name : {"fifo", "hash-affinity", "batch-pack"}) {
    EXPECT_TRUE(registry.Has(name)) << name;
  }
}

TEST(SchedulerRegistryTest, UnknownNameListsAlternatives) {
  auto sched = SchedulerRegistry::Global().Make("not-a-scheduler",
                                                SchedulerContext{});
  ASSERT_FALSE(sched.ok());
  EXPECT_TRUE(sched.status().IsInvalidArgument());
  EXPECT_NE(sched.status().message().find("fifo"), std::string::npos);
  EXPECT_NE(sched.status().message().find("hash-affinity"),
            std::string::npos);
}

TEST(SchedulerRegistryTest, FifoNeedsNoPartitioner) {
  auto sched = SchedulerRegistry::Global().Make("fifo", SchedulerContext{});
  ASSERT_TRUE(sched.ok()) << sched.status().ToString();
  // fifo never classifies: the open loop may defer its draws to launch.
  EXPECT_FALSE(sched.value()->Classifies());
  EXPECT_STREQ(Fifo().name(), "fifo");
  EXPECT_FALSE(Fifo().Classifies());
  EXPECT_FALSE(sched.value()->SerializeClasses());
}

TEST(SchedulerRegistryTest, HeatPoliciesRequireAPartitioner) {
  for (const char* name : {"hash-affinity", "batch-pack"}) {
    auto sched = SchedulerRegistry::Global().Make(name, SchedulerContext{});
    ASSERT_FALSE(sched.ok()) << name;
    EXPECT_TRUE(sched.status().IsInvalidArgument()) << name;
  }
}

TEST(SchedulerRegistryTest, DuplicateRegistrationIsRejected) {
  auto st = SchedulerRegistry::Global().Register(
      "fifo", [](const SchedulerContext&)
                  -> StatusOr<std::unique_ptr<Scheduler>> {
        return Status::InvalidArgument("never called");
      });
  EXPECT_TRUE(st.IsFailedPrecondition());
}

// ---------------------------------------------------------------------------
// Classification
// ---------------------------------------------------------------------------

class ClassifyTest : public ::testing::Test {
 protected:
  workload::ycsb::YcsbPartitioner part_{/*num_partitions=*/4,
                                        /*keys_per_partition=*/100,
                                        /*hot_keys_per_partition=*/2};
};

TEST_F(ClassifyTest, ColdTransactionsAreCold) {
  auto sched = MustMake("hash-affinity", TestContext(&part_));
  const txn::Transaction t =
      MakeTxn({{10, false}, {250, true}, {399, false}});  // no hot keys
  EXPECT_EQ(sched->Classify(t), kColdClass);
}

TEST_F(ClassifyTest, ClassificationIsDeterministic) {
  auto sched = MustMake("hash-affinity", TestContext(&part_));
  const txn::Transaction a = MakeTxn({{200, true}, {55, false}});
  const txn::Transaction b = MakeTxn({{200, true}, {55, false}});
  const uint32_t cls = sched->Classify(a);
  EXPECT_NE(cls, kColdClass);
  EXPECT_EQ(cls, sched->Classify(b));
  // A second scheduler instance over the same context agrees: the class is
  // a pure function of (record, universe), never of instance state.
  auto again = MustMake("hash-affinity", TestContext(&part_));
  EXPECT_EQ(cls, again->Classify(a));
}

TEST_F(ClassifyTest, OnlyHotWritesClassify) {
  auto sched = MustMake("hash-affinity", TestContext(&part_));
  // Reads hot key 0 first in op order but *writes* hot key 100: the
  // written record is the conflict predictor.
  const txn::Transaction mixed = MakeTxn({{0, false}, {100, true}});
  const txn::Transaction write_only = MakeTxn({{100, true}});
  EXPECT_EQ(sched->Classify(mixed), sched->Classify(write_only));
  // Hot *reads* share their lock and cannot storm: they stay cold rather
  // than serializing against the record's writers.
  const txn::Transaction read_only = MakeTxn({{0, false}, {201, false}});
  EXPECT_EQ(sched->Classify(read_only), kColdClass);
}

TEST_F(ClassifyTest, DistinctHotRecordsLandInDistinctClasses) {
  auto sched = MustMake("hash-affinity", TestContext(&part_));
  // Not guaranteed for arbitrary records (the universe is finite), but the
  // four partition-0-rank-0 keys of this layout must not all collide.
  const uint32_t c0 = sched->Classify(MakeTxn({{0, true}}));
  const uint32_t c1 = sched->Classify(MakeTxn({{100, true}}));
  const uint32_t c2 = sched->Classify(MakeTxn({{200, true}}));
  EXPECT_FALSE(c0 == c1 && c1 == c2);
}

TEST_F(ClassifyTest, ClassUniverseIsConfigurable) {
  auto sched = MustMake("hash-affinity", TestContext(&part_, /*classes=*/1));
  // One class: every hot transaction shares it, cold stays cold.
  EXPECT_EQ(sched->Classify(MakeTxn({{0, true}})),
            sched->Classify(MakeTxn({{301, true}})));
  EXPECT_EQ(sched->Classify(MakeTxn({{50, true}})), kColdClass);
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

TEST_F(ClassifyTest, HashAffinityRoutesHotWorkToTheOwnerEngine) {
  auto sched = MustMake("hash-affinity", TestContext(&part_));
  EXPECT_TRUE(sched->SerializeClasses());
  for (Key hot : {Key{0}, Key{100}, Key{201}, Key{300}}) {
    const txn::Transaction t = MakeTxn({{hot, true}, {50, false}});
    const uint32_t cls = sched->Classify(t);
    const EngineId owner =
        static_cast<EngineId>(part_.PartitionOf({workload::ycsb::kMain, hot}));
    // The same engine regardless of where the transaction arrived.
    for (EngineId arrival = 0; arrival < 4; ++arrival) {
      EXPECT_EQ(sched->Route(t, cls, arrival), owner) << hot;
    }
  }
}

TEST_F(ClassifyTest, ColdWorkStaysOnItsArrivalEngine) {
  auto sched = MustMake("hash-affinity", TestContext(&part_));
  const txn::Transaction t = MakeTxn({{10, true}, {250, false}});
  for (EngineId arrival = 0; arrival < 4; ++arrival) {
    EXPECT_EQ(sched->Route(t, kColdClass, arrival), arrival);
  }
}

TEST_F(ClassifyTest, BatchPackClassifiesButNeverSteers) {
  auto sched = MustMake("batch-pack", TestContext(&part_));
  EXPECT_FALSE(sched->SerializeClasses());
  const txn::Transaction hot = MakeTxn({{200, true}});
  EXPECT_NE(sched->Classify(hot), kColdClass);
  for (EngineId arrival = 0; arrival < 4; ++arrival) {
    EXPECT_EQ(sched->Route(hot, sched->Classify(hot), arrival), arrival);
  }
}

// ---------------------------------------------------------------------------
// Shed policy
// ---------------------------------------------------------------------------

TEST(ShedPolicyTest, ParseAndName) {
  EXPECT_EQ(ParseShedPolicy("drop-new").value(), ShedPolicy::kDropNew);
  EXPECT_EQ(ParseShedPolicy("drop-cold").value(), ShedPolicy::kDropCold);
  EXPECT_EQ(ParseShedPolicy("drop-hot").value(), ShedPolicy::kDropHot);
  EXPECT_STREQ(ShedPolicyName(ShedPolicy::kDropCold), "drop-cold");
  auto bad = ParseShedPolicy("drop-everything");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("drop-cold"), std::string::npos);
}

TEST(ShedPolicyTest, DropNewAlwaysShedsTheArrival) {
  EXPECT_EQ(PickVictim({false, true, false}, true, ShedPolicy::kDropNew), -1);
  EXPECT_EQ(PickVictim({false, true, false}, false, ShedPolicy::kDropNew),
            -1);
  EXPECT_EQ(PickVictim({}, true, ShedPolicy::kDropNew), -1);
}

TEST(ShedPolicyTest, DropColdEvictsTheNewestColdForAHotArrival) {
  // queue (oldest..newest): cold hot cold — the newest cold entry goes.
  EXPECT_EQ(PickVictim({false, true, false}, true, ShedPolicy::kDropCold), 2);
  EXPECT_EQ(PickVictim({false, true, true}, true, ShedPolicy::kDropCold), 0);
  // A cold arrival never displaces anyone under drop-cold.
  EXPECT_EQ(PickVictim({false, true, false}, false, ShedPolicy::kDropCold),
            -1);
  // No cold entry to evict: the hot arrival is shed.
  EXPECT_EQ(PickVictim({true, true}, true, ShedPolicy::kDropCold), -1);
}

TEST(ShedPolicyTest, DropHotIsTheMirrorImage) {
  EXPECT_EQ(PickVictim({true, false, true}, false, ShedPolicy::kDropHot), 2);
  EXPECT_EQ(PickVictim({true, false, true}, true, ShedPolicy::kDropHot), -1);
  EXPECT_EQ(PickVictim({false, false}, false, ShedPolicy::kDropHot), -1);
}

// ---------------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------------

TEST(SchedulerValidationTest, UnknownSchedulerNamesAlternatives) {
  const Status st = ValidateSchedulerNames("not-a-scheduler", "drop-new");
  ASSERT_TRUE(st.IsInvalidArgument());
  EXPECT_NE(st.message().find("fifo"), std::string::npos);
}

TEST(SchedulerValidationTest, UnknownShedPolicyNamesAlternatives) {
  const Status st = ValidateSchedulerNames("hash-affinity", "drop-all");
  ASSERT_TRUE(st.IsInvalidArgument());
  EXPECT_NE(st.message().find("drop-cold"), std::string::npos);
}

TEST(SchedulerValidationTest, TemperatureShedPoliciesNeedAClassifier) {
  const Status st = ValidateSchedulerNames("fifo", "drop-cold");
  ASSERT_TRUE(st.IsInvalidArgument());
  EXPECT_NE(st.message().find("hash-affinity"), std::string::npos);
}

TEST(SchedulerValidationTest, ModelCompatibility) {
  EXPECT_TRUE(
      ValidateSchedulerParams("fifo", "drop-new", "closed").ok());
  EXPECT_TRUE(
      ValidateSchedulerParams("hash-affinity", "drop-cold", "open").ok());
  EXPECT_TRUE(
      ValidateSchedulerParams("batch-pack", "drop-new", "batched").ok());
  EXPECT_TRUE(ValidateSchedulerParams("hash-affinity", "drop-new", "closed")
                  .IsInvalidArgument());
  EXPECT_TRUE(ValidateSchedulerParams("batch-pack", "drop-new", "open")
                  .IsInvalidArgument());
}

TEST(SchedulerValidationTest, RunnerValidateRejectsBadSchedulerSpecs) {
  runner::ScenarioSpec spec;
  spec.scheduler = "not-a-scheduler";
  Status st = runner::ScenarioRunner::Validate(spec);
  ASSERT_TRUE(st.IsInvalidArgument());
  EXPECT_NE(st.message().find("fifo"), std::string::npos);

  spec = runner::ScenarioSpec{};
  spec.shed_policy = "drop-everything";
  EXPECT_TRUE(runner::ScenarioRunner::Validate(spec).IsInvalidArgument());

  // hash-affinity on the default closed model: rejected with a pointer to
  // the open model.
  spec = runner::ScenarioSpec{};
  spec.scheduler = "hash-affinity";
  st = runner::ScenarioRunner::Validate(spec);
  ASSERT_TRUE(st.IsInvalidArgument());
  EXPECT_NE(st.message().find("open"), std::string::npos);
}

// ---------------------------------------------------------------------------
// End to end
// ---------------------------------------------------------------------------

runner::ScenarioSpec OpenYcsb(double offered_tps) {
  runner::ScenarioSpec spec;
  spec.workload = "ycsb";
  spec.protocol = "2pl";
  spec.nodes = 4;
  spec.engines_per_node = 1;
  spec.concurrency = 2;
  spec.seed = 7;
  spec.warmup = kMillisecond;
  spec.measure = 4 * kMillisecond;
  spec.load_model = "open";
  spec.offered_tps = offered_tps;
  spec.queue_cap = 8;
  spec.options.Set("keys_per_partition", 1000);
  spec.options.Set("theta", 0.95);
  return spec;
}

TEST(ScheduledAdmissionTest, HashAffinityCommitsUnderTheOpenModel) {
  runner::ScenarioSpec spec = OpenYcsb(/*offered_tps=*/200000.0);
  spec.scheduler = "hash-affinity";
  auto result = runner::ScenarioRunner::Run(spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->stats.TotalCommits(), 0u);
  EXPECT_GT(result->stats.admitted, 0u);
}

TEST(ScheduledAdmissionTest, OverloadShedsAndStillCommits) {
  runner::ScenarioSpec spec = OpenYcsb(/*offered_tps=*/5e6);
  spec.scheduler = "hash-affinity";
  spec.shed_policy = "drop-cold";
  spec.queue_cap = 4;
  auto result = runner::ScenarioRunner::Run(spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->stats.TotalCommits(), 0u);
  EXPECT_GT(result->stats.shed, 0u);
}

TEST(ScheduledAdmissionTest, DropColdAndDropHotDiverge) {
  runner::ScenarioSpec cold = OpenYcsb(/*offered_tps=*/5e6);
  cold.scheduler = "hash-affinity";
  cold.shed_policy = "drop-cold";
  cold.queue_cap = 4;
  runner::ScenarioSpec hot = cold;
  hot.shed_policy = "drop-hot";
  auto cold_result = runner::ScenarioRunner::Run(cold);
  auto hot_result = runner::ScenarioRunner::Run(hot);
  ASSERT_TRUE(cold_result.ok()) << cold_result.status().ToString();
  ASSERT_TRUE(hot_result.ok()) << hot_result.status().ToString();
  EXPECT_GT(cold_result->stats.shed, 0u);
  EXPECT_GT(hot_result->stats.shed, 0u);
  // The policies keep opposite halves of the offered mix, so the committed
  // mix must differ (both runs share every other knob and the seed).
  EXPECT_NE(cold_result->stats.TotalCommits(),
            hot_result->stats.TotalCommits());
}

TEST(ScheduledAdmissionTest, BatchPackLowersConflictAbortsAtHighSkew) {
  runner::ScenarioSpec spec;
  spec.workload = "ycsb";
  spec.protocol = "2pl";
  spec.nodes = 2;
  spec.engines_per_node = 2;
  spec.concurrency = 4;
  spec.seed = 5;
  spec.warmup = kMillisecond;
  spec.measure = 6 * kMillisecond;
  spec.load_model = "batched";
  spec.batch_size = 8;
  spec.options.Set("keys_per_partition", 1000);
  spec.options.Set("theta", 0.99);
  spec.options.Set("distributed_ratio", 0.0);
  // Single-write transactions make the predicted class *exactly* the
  // conflict: every write-write collision inside a fifo batch is one
  // batch-pack provably defers (multi-op transactions can still conflict
  // through their second-hottest record, which the single-class predictor
  // deliberately ignores).
  spec.options.Set("ops_per_txn", 1);
  spec.options.Set("read_ratio", 0.0);

  auto fifo = runner::ScenarioRunner::Run(spec);
  spec.scheduler = "batch-pack";
  auto packed = runner::ScenarioRunner::Run(spec);
  ASSERT_TRUE(fifo.ok()) << fifo.status().ToString();
  ASSERT_TRUE(packed.ok()) << packed.status().ToString();
  EXPECT_GT(packed->stats.TotalCommits(), 0u);
  EXPECT_GT(fifo->stats.TotalConflictAborts(), 0u);
  // Conflict-free batch formation must show a strict drop at this skew.
  EXPECT_LT(packed->stats.TotalConflictAborts(),
            fifo->stats.TotalConflictAborts());
}

// ---------------------------------------------------------------------------
// Routed shed accounting (the engine a request was routed *to* owns it)
// ---------------------------------------------------------------------------

/// Steers every arrival to engine 0, classifying nothing: isolates the
/// routing/accounting plumbing from the heat model.
class RouteToZeroScheduler final : public Scheduler {
 public:
  const char* name() const override { return "route-to-zero"; }
  uint32_t Classify(const txn::Transaction&) const override {
    return kColdClass;
  }
  EngineId Route(const txn::Transaction&, uint32_t,
                 EngineId) const override {
    return 0;
  }
};

void RegisterRouteToZeroOnce() {
  static const bool registered = [] {
    auto st = SchedulerRegistry::Global().Register(
        "route-to-zero",
        [](const SchedulerContext&)
            -> StatusOr<std::unique_ptr<Scheduler>> {
          return std::unique_ptr<Scheduler>(
              std::make_unique<RouteToZeroScheduler>());
        });
    return st.ok();
  }();
  ASSERT_TRUE(registered);
}

TEST(ScheduledAdmissionTest, ShedIsAccountedAtTheRoutedToEngine) {
  RegisterRouteToZeroOnce();
  runner::ScenarioSpec spec = OpenYcsb(/*offered_tps=*/2e6);
  spec.scheduler = "route-to-zero";
  spec.queue_cap = 2;
  auto env = runner::ScenarioRunner::Wire(spec);
  ASSERT_TRUE(env.ok()) << env.status().ToString();
  const cc::RunStats stats = env->driver->Run(spec.warmup, spec.measure);

  // Engine 0 absorbs the whole cluster's arrivals through a 2-deep queue:
  // it must both admit and shed; the engines the work was routed *away*
  // from never see an admission or a shed, even though their arrival
  // clocks generated the requests.
  EXPECT_GT(stats.TotalCommits(), 0u);
  EXPECT_GT(env->driver->engine_admitted(0), 0u);
  EXPECT_GT(env->driver->engine_shed(0), 0u);
  for (EngineId e = 1; e < 4; ++e) {
    EXPECT_EQ(env->driver->engine_admitted(e), 0u) << e;
    EXPECT_EQ(env->driver->engine_shed(e), 0u) << e;
  }
  EXPECT_EQ(stats.shed, env->driver->engine_shed(0));
}

}  // namespace
}  // namespace chiller::schedule
