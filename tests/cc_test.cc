// End-to-end protocol tests on a simulated cluster: 2PL, OCC, and Chiller
// run the Figure 4 flight-booking workload; afterwards storage must satisfy
// strong invariants (locks released, replicas identical to primaries, seats
// and balances conserved) — a serializability smoke test by conservation.
// AttemptLifecycleTest drives single hand-built attempts down each end path
// and checks the attempt's state at the moment its `done` runs.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "cc/cluster.h"
#include "cc/driver.h"
#include "cc/load_model.h"
#include "cc/occ.h"
#include "cc/replication.h"
#include "cc/twopl.h"
#include "chiller/two_region.h"
#include "partition/lookup_table.h"
#include "schedule/scheduler.h"
#include "workload/flight.h"

namespace chiller {
namespace {

using workload::FlightPartitioner;
using workload::FlightSchema;
using workload::FlightWorkload;

struct Env {
  std::unique_ptr<cc::Cluster> cluster;
  std::unique_ptr<FlightPartitioner> partitioner;
  std::unique_ptr<FlightWorkload> workload;
  std::unique_ptr<cc::ReplicationManager> repl;
  std::unique_ptr<cc::Protocol> protocol;
  std::unique_ptr<cc::Driver> driver;
};

Env MakeEnv(const std::string& proto_name, uint32_t nodes = 4,
            uint32_t concurrency = 2, uint32_t replication = 2) {
  Env env;
  cc::ClusterConfig cfg;
  cfg.topology = net::Topology{.num_nodes = nodes,
                               .engines_per_node = 1,
                               .replication_degree = replication};
  cfg.schema = FlightSchema::Specs();
  env.cluster = std::make_unique<cc::Cluster>(cfg);

  FlightWorkload::Options opts;
  opts.num_flights = 200;
  opts.num_customers = 2000;
  opts.hot_flights = 8;
  opts.hot_fraction = 0.7;
  env.workload = std::make_unique<FlightWorkload>(opts);
  env.partitioner =
      std::make_unique<FlightPartitioner>(nodes, opts.hot_flights);

  env.workload->ForEachRecord(
      [&](const RecordId& rid, const storage::Record& rec) {
        env.cluster->LoadRecord(rid, rec, *env.partitioner);
      });

  env.repl = std::make_unique<cc::ReplicationManager>(env.cluster.get());
  if (proto_name == "2pl") {
    env.protocol = std::make_unique<cc::TwoPhaseLocking>(
        env.cluster.get(), env.partitioner.get(), env.repl.get());
  } else if (proto_name == "occ") {
    env.protocol = std::make_unique<cc::Occ>(
        env.cluster.get(), env.partitioner.get(), env.repl.get());
  } else {
    env.protocol = std::make_unique<core::ChillerProtocol>(
        env.cluster.get(), env.partitioner.get(), env.repl.get());
  }
  env.driver = std::make_unique<cc::Driver>(env.cluster.get(),
                                            env.protocol.get(),
                                            env.workload.get(), concurrency);
  return env;
}

/// Checks every storage invariant that must hold at quiescence.
void CheckInvariants(Env& env, uint32_t nodes, uint32_t replication) {
  // (1) Every lock released, on primaries and replicas.
  for (uint32_t p = 0; p < nodes; ++p) {
    EXPECT_EQ(env.cluster->primary(p)->locks_held(), 0u) << "partition " << p;
    for (uint32_t r = 1; r < replication; ++r) {
      EXPECT_EQ(env.cluster->replica(p, r)->locks_held(), 0u);
    }
  }

  // Collect global state from primaries.
  std::map<Key, int64_t> flight_seats, cust_balance;
  std::map<Key, int64_t> seats_sold;          // per flight
  std::map<Key, int64_t> cust_spent_records;  // per customer, from seats
  const auto& opts = env.workload->options();
  for (uint32_t p = 0; p < nodes; ++p) {
    env.cluster->primary(p)->ForEach(
        [&](const RecordId& rid, const storage::Record& rec) {
          if (rid.table == FlightSchema::kFlight) {
            flight_seats[rid.key] = rec.Get(1);
          } else if (rid.table == FlightSchema::kCustomer) {
            cust_balance[rid.key] = rec.Get(0);
          } else if (rid.table == FlightSchema::kSeats) {
            const Key flight = rid.key / FlightSchema::kSeatStride;
            ++seats_sold[flight];
            const Key cust = static_cast<Key>(rec.Get(0));
            const int64_t price = 100 + static_cast<int64_t>(flight % 400);
            const int64_t tax =
                static_cast<int64_t>((cust % opts.num_states) % 20);
            cust_spent_records[cust] += price + tax;
          }
        });
  }

  // (2) Seats conservation: decrements match inserted seat records.
  ASSERT_EQ(flight_seats.size(), static_cast<size_t>(opts.num_flights));
  for (const auto& [f, seats] : flight_seats) {
    EXPECT_EQ(opts.initial_seats - seats, seats_sold[f]) << "flight " << f;
  }

  // (3) Balance conservation: every deducted dollar has a seat record.
  for (const auto& [c, balance] : cust_balance) {
    EXPECT_EQ(opts.initial_balance - balance, cust_spent_records[c])
        << "customer " << c;
  }

  // (4) Replicas converged to primary state.
  for (uint32_t p = 0; p < nodes; ++p) {
    auto* primary = env.cluster->primary(p);
    for (uint32_t r = 1; r < replication; ++r) {
      auto* replica = env.cluster->replica(p, r);
      EXPECT_EQ(primary->num_records(), replica->num_records());
      primary->ForEach([&](const RecordId& rid, const storage::Record& rec) {
        storage::Record* rrec = replica->Find(rid);
        ASSERT_NE(rrec, nullptr) << rid.ToString() << " missing at replica";
        EXPECT_EQ(rec, *rrec) << rid.ToString();
      });
    }
  }
}

class ProtocolInvariantTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ProtocolInvariantTest, FlightWorkloadConservesState) {
  const uint32_t nodes = 4, replication = 2;
  Env env = MakeEnv(GetParam(), nodes, /*concurrency=*/2, replication);
  cc::RunStats stats = env.driver->Run(2 * kMillisecond, 20 * kMillisecond);
  env.driver->Quiesce();
  EXPECT_GT(stats.TotalCommits(), 100u);
  CheckInvariants(env, nodes, replication);
}

TEST_P(ProtocolInvariantTest, HighConcurrencyStillConserves) {
  const uint32_t nodes = 3, replication = 2;
  Env env = MakeEnv(GetParam(), nodes, /*concurrency=*/6, replication);
  env.driver->Run(1 * kMillisecond, 10 * kMillisecond);
  env.driver->Quiesce();
  CheckInvariants(env, nodes, replication);
}

TEST_P(ProtocolInvariantTest, NoReplicationConfigWorks) {
  const uint32_t nodes = 3, replication = 1;
  Env env = MakeEnv(GetParam(), nodes, /*concurrency=*/2, replication);
  cc::RunStats stats = env.driver->Run(1 * kMillisecond, 10 * kMillisecond);
  env.driver->Quiesce();
  EXPECT_GT(stats.TotalCommits(), 50u);
  CheckInvariants(env, nodes, replication);
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, ProtocolInvariantTest,
                         ::testing::Values("2pl", "occ", "chiller"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

TEST(ChillerProtocolTest, UsesTwoRegionExecutionForHotTxns) {
  Env env = MakeEnv("chiller");
  env.driver->Run(1 * kMillisecond, 10 * kMillisecond);
  env.driver->Quiesce();
  auto* chiller = static_cast<core::ChillerProtocol*>(env.protocol.get());
  EXPECT_GT(chiller->counters().two_region_txns, 0u);
  EXPECT_GT(chiller->counters().fallback_txns, 0u);  // cold bookings
}

TEST(ChillerProtocolTest, LowerAbortRateThanTwoPlUnderContention) {
  // The headline mechanism: hot flights cause NO_WAIT conflicts under 2PL
  // (locks span network round trips); Chiller's inner regions shrink the
  // contention span and with it the abort rate.
  Env twopl = MakeEnv("2pl", 4, /*concurrency=*/4);
  Env chiller = MakeEnv("chiller", 4, /*concurrency=*/4);
  auto s2 = twopl.driver->Run(2 * kMillisecond, 30 * kMillisecond);
  auto sc = chiller.driver->Run(2 * kMillisecond, 30 * kMillisecond);
  twopl.driver->Quiesce();
  chiller.driver->Quiesce();
  EXPECT_LT(sc.AbortRate(), s2.AbortRate());
  EXPECT_GT(sc.Throughput(), s2.Throughput());
}

TEST(DriverTest, RetriesEventuallyCommit) {
  Env env = MakeEnv("2pl", 3, /*concurrency=*/3);
  auto stats = env.driver->Run(1 * kMillisecond, 15 * kMillisecond);
  env.driver->Quiesce();
  // Under contention there are conflict aborts, yet commits keep flowing.
  EXPECT_GT(stats.TotalConflictAborts(), 0u);
  EXPECT_GT(stats.TotalCommits(), 100u);
}

TEST(DriverTest, StatsClassNames) {
  Env env = MakeEnv("2pl");
  auto stats = env.driver->Run(0, 5 * kMillisecond);
  env.driver->Quiesce();
  ASSERT_EQ(stats.classes.size(), 1u);
  EXPECT_EQ(stats.classes[0].name, "book");
  EXPECT_GT(stats.classes[0].latency.count(), 0u);
}

TEST(DriverTest, DistributedRatioTracked) {
  Env env = MakeEnv("2pl");
  auto stats = env.driver->Run(0, 5 * kMillisecond);
  env.driver->Quiesce();
  // Random customers/flights over 4 partitions: most bookings span
  // partitions.
  EXPECT_GT(stats.DistributedRatio(), 0.5);
}

// ---------------------------------------------------------------------------
// Load models (cc/load_model.h)
// ---------------------------------------------------------------------------

/// Replaces an Env's driver with one using an explicit load model.
void UseModel(Env* env, std::unique_ptr<cc::LoadModel> model,
              uint64_t seed = 1) {
  env->driver = std::make_unique<cc::Driver>(
      env->cluster.get(), env->protocol.get(), env->workload.get(),
      std::move(model), seed);
}

TEST(LoadModelTest, ExplicitClosedLoopMatchesLegacyConstructor) {
  // The legacy Driver constructor and an injected ClosedLoop must be the
  // same driver, event for event (the Figure 9 baselines depend on it).
  Env legacy = MakeEnv("2pl", 3, /*concurrency=*/3);
  auto a = legacy.driver->Run(kMillisecond, 6 * kMillisecond);
  legacy.driver->Quiesce();

  Env injected = MakeEnv("2pl", 3, /*concurrency=*/3);
  UseModel(&injected, std::make_unique<cc::ClosedLoop>(3));
  auto b = injected.driver->Run(kMillisecond, 6 * kMillisecond);
  injected.driver->Quiesce();

  EXPECT_EQ(a.TotalCommits(), b.TotalCommits());
  EXPECT_EQ(a.TotalConflictAborts(), b.TotalConflictAborts());
  EXPECT_EQ(legacy.cluster->sim()->events_processed(),
            injected.cluster->sim()->events_processed());
  // Closed loop has no admission queue: the accounting must stay zero.
  EXPECT_EQ(b.admitted, 0u);
  EXPECT_EQ(b.shed, 0u);
  EXPECT_EQ(b.queue_delay.count(), 0u);
}

TEST(LoadModelTest, OpenLoopDeliversTheOfferedRate) {
  // Well under capacity the open loop must deliver ~what was offered:
  // uniform arrivals at 20k tps cluster-wide over a 10 ms window = ~200
  // attempts, with an idle queue and nothing shed.
  Env env = MakeEnv("2pl", 2, /*concurrency=*/2);
  cc::LoadModelParams o;
  o.offered_tps = 20000;
  o.arrival = "uniform";
  o.slots_per_engine = 2;
  o.queue_cap = 16;
  UseModel(&env, std::make_unique<cc::OpenLoop>(o));
  auto stats = env.driver->Run(2 * kMillisecond, 10 * kMillisecond);
  env.driver->Quiesce();

  EXPECT_GT(stats.admitted, 0u);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_GE(stats.TotalAttempts(), 120u);
  EXPECT_LE(stats.TotalAttempts(), 280u);
  EXPECT_GT(stats.TotalCommits(), 0u);
  // Queueing delay is measured, and at 10% load it is essentially zero.
  EXPECT_GT(stats.queue_delay.count(), 0u);
  EXPECT_LT(stats.queue_delay.Mean(), 10000.0);
}

TEST(LoadModelTest, OpenLoopShedsAtAFullQueue) {
  // Offered load far beyond capacity with a tiny queue: the bounded
  // admission queue must shed most arrivals instead of queueing without
  // limit, and what is admitted still commits.
  Env env = MakeEnv("2pl", 2, /*concurrency=*/1);
  cc::LoadModelParams o;
  o.offered_tps = 5000000;
  o.slots_per_engine = 1;
  o.queue_cap = 2;
  UseModel(&env, std::make_unique<cc::OpenLoop>(o));
  auto stats = env.driver->Run(kMillisecond, 8 * kMillisecond);
  env.driver->Quiesce();

  EXPECT_GT(stats.shed, 0u);
  EXPECT_GT(stats.admitted, 0u);
  EXPECT_GT(stats.ShedRate(), 0.5);
  EXPECT_LT(stats.ShedRate(), 1.0);
  EXPECT_GT(stats.TotalCommits(), 0u);
  // The queue was persistently full, so admitted requests waited.
  EXPECT_GT(stats.queue_delay.Percentile(99), 0u);
}

TEST(LoadModelTest, OpenLoopIsDeterministic) {
  auto run = [] {
    Env env = MakeEnv("chiller", 3, /*concurrency=*/2);
    cc::LoadModelParams o;
    o.offered_tps = 100000;
    o.slots_per_engine = 2;
    o.queue_cap = 8;
    o.seed = 42;
    UseModel(&env, std::make_unique<cc::OpenLoop>(o), /*seed=*/42);
    auto stats = env.driver->Run(kMillisecond, 6 * kMillisecond);
    env.driver->Quiesce();
    return std::make_tuple(stats.TotalCommits(), stats.admitted, stats.shed,
                           env.cluster->sim()->events_processed());
  };
  EXPECT_EQ(run(), run());
}

/// Forwards to a workload and counts its fresh draws (Next); retries never
/// reach the source.
class CountingSource final : public cc::WorkloadSource {
 public:
  explicit CountingSource(cc::WorkloadSource* inner) : inner_(inner) {}

  std::unique_ptr<txn::Transaction> Next(PartitionId home,
                                         Rng* rng) override {
    ++next_calls;
    return inner_->Next(home, rng);
  }
  uint32_t NumClasses() const override { return inner_->NumClasses(); }
  std::string ClassName(uint32_t cls) const override {
    return inner_->ClassName(cls);
  }

  uint64_t next_calls = 0;

 private:
  cc::WorkloadSource* inner_;
};

/// Classifies (everything cold) but never steers: the arrival-time draw is
/// the only difference from fifo.
class ColdClassifier final : public schedule::Scheduler {
 public:
  const char* name() const override { return "cold-classifier"; }
  uint32_t Classify(const txn::Transaction&) const override {
    return schedule::kColdClass;
  }
  EngineId Route(const txn::Transaction&, uint32_t,
                 EngineId arrival) const override {
    return arrival;
  }
};

/// Open loop with a one-deep queue far past capacity, counting from the
/// first arrival. Returns (Next calls, admitted, shed, still queued).
std::tuple<uint64_t, uint64_t, uint64_t, int64_t> RunShedding(
    const schedule::Scheduler* sched) {
  Env env = MakeEnv("2pl", 2, /*concurrency=*/1);
  CountingSource source(env.workload.get());
  cc::LoadModelParams o;
  o.offered_tps = 5000000;
  o.slots_per_engine = 1;
  o.queue_cap = 1;
  env.driver = std::make_unique<cc::Driver>(
      env.cluster.get(), env.protocol.get(), &source,
      std::make_unique<cc::OpenLoop>(o));
  if (sched != nullptr) env.driver->set_scheduler(sched);
  env.driver->set_measuring(true);
  env.driver->Start();
  env.driver->Advance(2 * kMillisecond);
  const cc::RunStats& stats = env.driver->stats();
  const int64_t queued =
      env.cluster->metrics()->GetGauge("admission.queue_depth")->Value();
  return {source.next_calls, stats.admitted, stats.shed, queued};
}

TEST(LoadModelTest, DriverStartsWithFifo) {
  Env env = MakeEnv("2pl");
  EXPECT_STREQ(env.driver->scheduler().name(), "fifo");
  EXPECT_FALSE(env.driver->scheduler().Classifies());
}

TEST(LoadModelTest, FifoDrawsAtLaunchAndShedArrivalsDrawNothing) {
  // The rule that keeps fifo's open loop on the same workload-RNG order as
  // before schedulers existed: every admitted request is drawn when it
  // launches, so queued requests have not drawn yet and shed ones never
  // do. Launched fresh = admitted - still queued.
  const auto [next, admitted, shed, queued] = RunShedding(nullptr);
  ASSERT_GT(shed, 0u);
  ASSERT_GT(admitted, 0u);
  EXPECT_EQ(next, admitted - static_cast<uint64_t>(queued));
}

TEST(LoadModelTest, ClassifyingSchedulerDrawsEveryArrival) {
  // A classifying scheduler must see the transaction at arrival, so every
  // arrival draws — the shed ones included.
  ColdClassifier sched;
  const auto [next, admitted, shed, queued] = RunShedding(&sched);
  ASSERT_GT(shed, 0u);
  EXPECT_EQ(next, admitted + shed);
}

TEST(LoadModelTest, FactoryValidatesParams) {
  cc::LoadModelParams p;
  EXPECT_TRUE(cc::MakeLoadModel("closed", p).ok());
  EXPECT_TRUE(cc::MakeLoadModel("nope", p).status().IsInvalidArgument());

  // Open needs a positive offered rate and a non-degenerate queue.
  EXPECT_TRUE(cc::MakeLoadModel("open", p).status().IsInvalidArgument());
  p.offered_tps = 1000;
  EXPECT_TRUE(cc::MakeLoadModel("open", p).ok());
  p.queue_cap = 0;
  EXPECT_TRUE(cc::MakeLoadModel("open", p).status().IsInvalidArgument());
  p.queue_cap = 4;
  p.arrival = "bursty";
  EXPECT_TRUE(cc::MakeLoadModel("open", p).status().IsInvalidArgument());
  p.arrival = "uniform";
  EXPECT_TRUE(cc::MakeLoadModel("open", p).ok());
}

// ---------------------------------------------------------------------------
// Attempt lifecycle (cc/exec_common.h)
// ---------------------------------------------------------------------------

constexpr TableId kTable = 0;
/// Hot on partition 1: a two-region attempt homed on partition 0 ships its
/// inner region there by RPC.
constexpr Key kHot = 1;

/// Two nodes with one engine each and one replica per partition; key k
/// lives on partition k % 2, and kHot is the only hot record.
struct LifecycleEnv {
  std::unique_ptr<cc::Cluster> cluster;
  partition::LookupPartitioner partitioner{
      std::make_unique<partition::HashPartitioner>(
          2, [](const RecordId& rid, uint32_t n) {
            return static_cast<PartitionId>(rid.key % n);
          })};
  std::unique_ptr<cc::ReplicationManager> repl;
  std::unique_ptr<cc::Protocol> protocol;
};

std::unique_ptr<LifecycleEnv> MakeLifecycleEnv(const std::string& proto) {
  auto env = std::make_unique<LifecycleEnv>();
  cc::ClusterConfig cfg;
  cfg.topology = net::Topology{.num_nodes = 2,
                               .engines_per_node = 1,
                               .replication_degree = 2};
  cfg.schema = {storage::TableSpec{.name = "t", .id = kTable,
                                   .num_fields = 1,
                                   .buckets_per_partition = 1024}};
  env->cluster = std::make_unique<cc::Cluster>(cfg);
  env->partitioner.MarkHot({kTable, kHot});
  for (Key k = 1; k <= 8; ++k) {
    storage::Record r(1);
    r.Set(0, 100);
    env->cluster->LoadRecord({kTable, k}, r, env->partitioner);
  }
  env->repl = std::make_unique<cc::ReplicationManager>(env->cluster.get());
  cc::Cluster* c = env->cluster.get();
  if (proto == "2pl") {
    env->protocol = std::make_unique<cc::TwoPhaseLocking>(
        c, &env->partitioner, env->repl.get());
  } else if (proto == "occ") {
    env->protocol =
        std::make_unique<cc::Occ>(c, &env->partitioner, env->repl.get());
  } else {
    env->protocol = std::make_unique<core::ChillerProtocol>(
        c, &env->partitioner, env->repl.get());
  }
  return env;
}

/// An increment of key k; with `fail_guard` its guard rejects the attempt.
txn::Operation Increment(Key k, bool fail_guard = false) {
  txn::Operation op;
  op.type = txn::OpType::kUpdate;
  op.table = kTable;
  op.mode = storage::LockMode::kExclusive;
  op.key_fn = [k](const txn::TxnContext&) { return k; };
  op.on_apply = [](txn::TxnContext&, storage::Record* r) { r->Add(0, 1); };
  if (fail_guard) op.guard = [](const txn::TxnContext&) { return false; };
  return op;
}

struct LifecycleCase {
  std::string name;
  std::string protocol;
  std::vector<txn::Operation> (*ops)();
  /// Keys another transaction holds exclusively for the whole run.
  std::vector<Key> foreign_locks;
  txn::Outcome outcome;
  /// The Chiller counter the path must bump once (null for 2PL and OCC).
  std::atomic<uint64_t> core::TwoRegionCounters::*counter;
};

void PrintTo(const LifecycleCase& c, std::ostream* os) { *os << c.name; }

class AttemptLifecycleTest : public ::testing::TestWithParam<LifecycleCase> {};

TEST_P(AttemptLifecycleTest, DoneSeesAStampedAttemptHoldingNoLock) {
  const LifecycleCase& c = GetParam();
  auto env = MakeLifecycleEnv(c.protocol);
  cc::Cluster* cluster = env->cluster.get();
  for (Key k : c.foreign_locks) {
    ASSERT_TRUE(cluster->primary(k % 2)
                    ->TryLock({kTable, k}, storage::LockMode::kExclusive)
                    .ok());
  }
  auto t = std::make_shared<txn::Transaction>();
  t->id = 1;
  t->home = 0;
  t->SetOps(c.ops());

  bool fired = false;
  env->protocol->Execute(t, [&]() {
    fired = true;
    EXPECT_EQ(t->outcome, c.outcome);
    EXPECT_EQ(t->end_time, cluster->sim()->now());
    for (size_t i = 0; i < t->accesses.size(); ++i) {
      EXPECT_FALSE(t->accesses[i].lock_held) << "op " << i;
    }
    // Every lock still held in the stores is another transaction's.
    EXPECT_EQ(cluster->primary(0)->locks_held() +
                  cluster->primary(1)->locks_held(),
              c.foreign_locks.size());
  });
  cluster->sim()->Run();
  ASSERT_TRUE(fired);
  if (c.counter != nullptr) {
    auto* chiller = static_cast<core::ChillerProtocol*>(env->protocol.get());
    EXPECT_EQ((chiller->counters().*c.counter).load(), 1u);
  }
}

// Home is partition 0. Keys 2 and 4 are local to it, 3 and kHot remote.
std::vector<txn::Operation> LocalAndRemote() {
  return {Increment(2), Increment(3)};
}
std::vector<txn::Operation> FailedGuard() {
  return {Increment(2), Increment(3, /*fail_guard=*/true)};
}
// Outer region {2, 4} on the coordinator, inner region {kHot, 3} on
// partition 1.
std::vector<txn::Operation> TwoRegion() {
  return {Increment(2), Increment(kHot), Increment(3), Increment(4)};
}
std::vector<txn::Operation> ColdOnly() {
  return {Increment(2), Increment(3), Increment(4)};
}

using core::TwoRegionCounters;
using txn::Outcome;

INSTANTIATE_TEST_SUITE_P(
    EndPaths, AttemptLifecycleTest,
    ::testing::Values(
        LifecycleCase{"TwoPlCommit", "2pl", LocalAndRemote, {},
                      Outcome::kCommitted, nullptr},
        LifecycleCase{"TwoPlContentionAbort", "2pl", LocalAndRemote, {3},
                      Outcome::kAbortConflict, nullptr},
        LifecycleCase{"TwoPlUserAbort", "2pl", FailedGuard, {},
                      Outcome::kAbortUser, nullptr},
        LifecycleCase{"OccCommit", "occ", LocalAndRemote, {},
                      Outcome::kCommitted, nullptr},
        // Execution reads key 3 without a lock; validation locks key 2,
        // then fails on 3 and must release 2.
        LifecycleCase{"OccValidationAbort", "occ", LocalAndRemote, {3},
                      Outcome::kAbortConflict, nullptr},
        LifecycleCase{"ChillerCommit", "chiller", TwoRegion, {},
                      Outcome::kCommitted,
                      &TwoRegionCounters::two_region_txns},
        // Key 2 is locked when the outer region fails on key 4.
        LifecycleCase{"ChillerOuterAbort", "chiller", TwoRegion, {4},
                      Outcome::kAbortConflict,
                      &TwoRegionCounters::outer_aborts},
        // The inner region locks kHot, fails on key 3 and releases kHot;
        // the coordinator then releases the outer region.
        LifecycleCase{"ChillerInnerAbort", "chiller", TwoRegion, {3},
                      Outcome::kAbortConflict,
                      &TwoRegionCounters::inner_aborts},
        LifecycleCase{"ChillerPlannerFallback", "chiller", ColdOnly, {},
                      Outcome::kCommitted,
                      &TwoRegionCounters::fallback_txns}),
    [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace chiller
