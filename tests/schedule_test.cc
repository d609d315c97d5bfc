// Tests for the admission-scheduling stage (schedule/scheduler.h): the
// name table, classification and routing of the built-in policies,
// validation plumbing, and the end-to-end behavior of scheduled admission
// under the open load model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
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
  std::vector<txn::Operation> ops;
  for (const auto& [key, is_write] : keys) {
    txn::Operation op;
    op.type = is_write ? txn::OpType::kUpdate : txn::OpType::kRead;
    op.table = workload::ycsb::kMain;
    op.mode = is_write ? storage::LockMode::kExclusive
                       : storage::LockMode::kShared;
    op.key_fn = [key](const txn::TxnContext&) { return key; };
    ops.push_back(std::move(op));
  }
  t.SetOps(std::move(ops));
  t.ResolveReadyKeys();
  return t;
}

/// 4 engines over 4 partitions of 100 keys each; keys {p*100, p*100+1}
/// are partition p's hot set.
SchedulerContext TestContext(const partition::RecordPartitioner* part) {
  SchedulerContext ctx;
  ctx.num_engines = 4;
  ctx.partitioner = part;
  return ctx;
}

std::unique_ptr<Scheduler> MustMake(const std::string& name,
                                    const SchedulerContext& ctx) {
  auto sched = Schedulers().Make(name, ctx);
  EXPECT_TRUE(sched.ok()) << sched.status().ToString();
  return std::move(sched).value();
}

// ---------------------------------------------------------------------------
// Name table
// ---------------------------------------------------------------------------

TEST(SchedulerRegistryTest, BuiltinsAreRegistered) {
  EXPECT_EQ(Schedulers().Names(),
            (std::vector<std::string>{"fifo", "hash-affinity"}));
}

TEST(SchedulerRegistryTest, UnknownNameListsAlternatives) {
  auto sched = Schedulers().Make("not-a-scheduler", SchedulerContext{});
  ASSERT_FALSE(sched.ok());
  EXPECT_TRUE(sched.status().IsInvalidArgument());
  EXPECT_NE(sched.status().message().find("fifo"), std::string::npos);
  EXPECT_NE(sched.status().message().find("hash-affinity"),
            std::string::npos);
  // A removed built-in is just an unknown name: a Status, not a CHECK.
  auto removed = Schedulers().Make("batch-pack", SchedulerContext{});
  ASSERT_FALSE(removed.ok());
  EXPECT_TRUE(removed.status().IsInvalidArgument());
  EXPECT_NE(removed.status().message().find("fifo"), std::string::npos);
  EXPECT_NE(removed.status().message().find("hash-affinity"),
            std::string::npos);
}

TEST(SchedulerRegistryTest, FifoNeedsNoPartitioner) {
  auto sched = Schedulers().Make("fifo", SchedulerContext{});
  ASSERT_TRUE(sched.ok()) << sched.status().ToString();
  // fifo never classifies: the open loop may defer its draws to launch.
  EXPECT_FALSE(sched.value()->Classifies());
  EXPECT_STREQ(Fifo().name(), "fifo");
  EXPECT_FALSE(Fifo().Classifies());
}

TEST(SchedulerRegistryTest, HeatPoliciesRequireAPartitioner) {
  auto sched = Schedulers().Make("hash-affinity", SchedulerContext{});
  ASSERT_FALSE(sched.ok());
  EXPECT_TRUE(sched.status().IsInvalidArgument());
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

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

TEST_F(ClassifyTest, HashAffinityRoutesHotWorkToTheOwnerEngine) {
  auto sched = MustMake("hash-affinity", TestContext(&part_));
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

// ---------------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------------

TEST(SchedulerValidationTest, UnknownSchedulerNamesAlternatives) {
  const Status st = Schedulers().Check("not-a-scheduler");
  ASSERT_TRUE(st.IsInvalidArgument());
  EXPECT_NE(st.message().find("fifo"), std::string::npos);
}

TEST(SchedulerValidationTest, ModelCompatibility) {
  EXPECT_TRUE(ValidateSchedulerParams("fifo", "closed").ok());
  EXPECT_TRUE(ValidateSchedulerParams("hash-affinity", "open").ok());
  EXPECT_TRUE(
      ValidateSchedulerParams("hash-affinity", "closed").IsInvalidArgument());
}

TEST(SchedulerValidationTest, RunnerValidateRejectsBadSchedulerSpecs) {
  runner::ScenarioSpec spec;
  spec.scheduler = "not-a-scheduler";
  Status st = runner::ScenarioRunner::Validate(spec);
  ASSERT_TRUE(st.IsInvalidArgument());
  EXPECT_NE(st.message().find("fifo"), std::string::npos);

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

/// One traced attempt: its [start, end] span in simulated ns.
struct AttemptSpan {
  SimTime start;
  SimTime end;
  uint64_t txn;
};

/// A trace timestamp (microseconds with a 3-digit ns fraction) in ns,
/// exact: integer compares avoid float rounding on start == end ties.
SimTime TraceNs(const Json& us) {
  return static_cast<SimTime>(std::llround(us.AsDouble() * 1000.0));
}

TEST(ScheduledAdmissionTest, HashAffinityNeverOverlapsTwoAttemptsOfAClass) {
  runner::ScenarioSpec spec = OpenYcsb(/*offered_tps=*/1e6);
  spec.scheduler = "hash-affinity";
  spec.options.Set("theta", 0.99);
  spec.trace_sample_every = 1;
  auto result = runner::ScenarioRunner::Run(spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto doc = Json::Parse(result->trace->DumpJson());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();

  // The class is classified on the arrival engine (sched_classify) and
  // held on the engine the request was routed to, where its attempts run:
  // join the two by logical transaction id.
  std::map<uint64_t, uint32_t> class_of_txn;
  std::vector<const Json*> attempts;
  for (const Json& ev : doc->Get("traceEvents")->AsArray()) {
    const Json* name = ev.Get("name");
    if (name == nullptr || ev.Get("ph")->AsString() == "M") continue;
    const Json& args = *ev.Get("args");
    if (name->AsString() == "sched_classify") {
      class_of_txn[static_cast<uint64_t>(args.Get("txn")->AsDouble())] =
          static_cast<uint32_t>(args.Get("class")->AsDouble());
    } else if (name->AsString() == "attempt") {
      attempts.push_back(&ev);
    }
  }
  // (pid, tid) names the engine; spans grouped per engine and class.
  std::map<std::pair<uint64_t, uint64_t>,
           std::map<uint32_t, std::vector<AttemptSpan>>>
      spans;
  for (const Json* ev : attempts) {
    const uint64_t txn =
        static_cast<uint64_t>(ev->Get("args")->Get("txn")->AsDouble());
    auto cls = class_of_txn.find(txn);
    ASSERT_NE(cls, class_of_txn.end()) << "attempt of unclassified " << txn;
    if (cls->second == kColdClass) continue;
    const SimTime start = TraceNs(*ev->Get("ts"));
    spans[{static_cast<uint64_t>(ev->Get("pid")->AsDouble()),
           static_cast<uint64_t>(ev->Get("tid")->AsDouble())}][cls->second]
        .push_back({start, start + TraceNs(*ev->Get("dur")), txn});
  }

  bool class_recurs = false;
  for (auto& [engine, classes] : spans) {
    for (auto& [cls, list] : classes) {
      std::sort(list.begin(), list.end(),
                [](const AttemptSpan& a, const AttemptSpan& b) {
                  return a.start < b.start;
                });
      for (size_t i = 1; i < list.size(); ++i) {
        if (list[i].txn != list[0].txn) class_recurs = true;
        // Serialized admission: the next attempt of the class starts no
        // earlier than the previous one ended (a retry of the same
        // transaction holds the class, so it cannot overlap either).
        EXPECT_GE(list[i].start, list[i - 1].end)
            << "class " << cls << " on pid " << engine.first << " tid "
            << engine.second << ": txn " << list[i].txn << " overlaps txn "
            << list[i - 1].txn;
      }
    }
  }
  // The check above is vacuous unless some class ran more than one
  // transaction on one engine.
  EXPECT_TRUE(class_recurs);
}

TEST(ScheduledAdmissionTest, OverloadShedsAndStillCommits) {
  runner::ScenarioSpec spec = OpenYcsb(/*offered_tps=*/5e6);
  spec.scheduler = "hash-affinity";
  spec.queue_cap = 4;
  auto result = runner::ScenarioRunner::Run(spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->stats.TotalCommits(), 0u);
  EXPECT_GT(result->stats.shed, 0u);
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

TEST(ScheduledAdmissionTest, ShedIsAccountedAtTheRoutedToEngine) {
  // Not a table entry: installed over the wired fifo before the run starts,
  // and declared first so it outlives the driver.
  const RouteToZeroScheduler route_to_zero;
  runner::ScenarioSpec spec = OpenYcsb(/*offered_tps=*/2e6);
  spec.queue_cap = 2;
  auto env = runner::ScenarioRunner::Wire(spec);
  ASSERT_TRUE(env.ok()) << env.status().ToString();
  env->driver->set_scheduler(&route_to_zero);
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
