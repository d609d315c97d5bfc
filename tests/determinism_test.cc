// Reproducibility: the whole stack — simulator, network, engines,
// protocols, workload generators — is deterministic for a fixed seed.
// Every experiment in bench/ therefore reproduces bit-for-bit, and the
// parallel sweep executor reproduces the serial executor exactly.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>

#include "bench/bench_report.h"
#include "cc/cluster.h"
#include "cc/driver.h"
#include "cc/occ.h"
#include "cc/twopl.h"
#include "chiller/two_region.h"
#include "runner/sweep.h"
#include "workload/flight.h"
#include "workload/tpcc/tpcc_workload.h"

namespace chiller {
namespace {

struct Fingerprint {
  uint64_t commits;
  uint64_t conflicts;
  uint64_t users;
  uint64_t events;
  uint64_t net_messages;

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

Fingerprint RunFlight(const std::string& proto, uint64_t seed) {
  cc::ClusterConfig cfg;
  cfg.topology = net::Topology{.num_nodes = 3,
                               .engines_per_node = 1,
                               .replication_degree = 2};
  cfg.schema = workload::FlightSchema::Specs();
  cc::Cluster cluster(cfg);
  workload::FlightWorkload workload({});
  workload::FlightPartitioner partitioner(3, 10);
  workload.ForEachRecord([&](const RecordId& rid, const storage::Record& r) {
    cluster.LoadRecord(rid, r, partitioner);
  });
  cc::ReplicationManager repl(&cluster);
  std::unique_ptr<cc::Protocol> protocol;
  if (proto == "2pl") {
    protocol = std::make_unique<cc::TwoPhaseLocking>(&cluster, &partitioner,
                                                     &repl);
  } else if (proto == "occ") {
    protocol = std::make_unique<cc::Occ>(&cluster, &partitioner, &repl);
  } else {
    protocol = std::make_unique<core::ChillerProtocol>(&cluster, &partitioner,
                                                       &repl);
  }
  cc::Driver driver(&cluster, protocol.get(), &workload, 3, seed);
  auto stats = driver.Run(1 * kMillisecond, 8 * kMillisecond);
  driver.Quiesce();
  uint64_t users = 0;
  for (const auto& c : stats.classes) users += c.user_aborts;
  return Fingerprint{stats.TotalCommits(), stats.TotalConflictAborts(), users,
                     cluster.sim()->events_processed(),
                     cluster.network()->messages_sent()};
}

class DeterminismTest : public ::testing::TestWithParam<std::string> {};

TEST_P(DeterminismTest, SameSeedSameExecution) {
  const Fingerprint a = RunFlight(GetParam(), 42);
  const Fingerprint b = RunFlight(GetParam(), 42);
  EXPECT_EQ(a, b);
  EXPECT_GT(a.commits, 0u);
}

TEST_P(DeterminismTest, DifferentSeedDifferentExecution) {
  const Fingerprint a = RunFlight(GetParam(), 1);
  const Fingerprint b = RunFlight(GetParam(), 2);
  // The workload stream differs, so at least the message count must move.
  EXPECT_FALSE(a == b);
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, DeterminismTest,
                         ::testing::Values("2pl", "occ", "chiller"));

TEST(DeterminismTest, TpccRunReproduces) {
  auto run = [] {
    cc::ClusterConfig cfg;
    cfg.topology = net::Topology{.num_nodes = 4,
                                 .engines_per_node = 1,
                                 .replication_degree = 2};
    cfg.schema = workload::tpcc::Schema();
    cc::Cluster cluster(cfg);
    workload::tpcc::TpccPartitioner partitioner(4);
    workload::tpcc::PopulateTpcc(
        4,
        [&](const RecordId& rid, const storage::Record& rec) {
          cluster.LoadRecord(rid, rec, partitioner);
        },
        [&](const RecordId& rid, const storage::Record& rec) {
          cluster.LoadEverywhere(rid, rec);
        });
    workload::tpcc::TpccWorkload workload(
        workload::tpcc::TpccWorkload::Options{.num_warehouses = 4});
    cc::ReplicationManager repl(&cluster);
    core::ChillerProtocol protocol(&cluster, &partitioner, &repl);
    cc::Driver driver(&cluster, &protocol, &workload, 3, 7);
    auto stats = driver.Run(1 * kMillisecond, 6 * kMillisecond);
    driver.Quiesce();
    return std::make_pair(stats.TotalCommits(),
                          cluster.sim()->events_processed());
  };
  EXPECT_EQ(run(), run());
}

// ---------------------------------------------------------------------------
// Sweep determinism: --jobs N must reproduce --jobs 1 byte for byte.
// ---------------------------------------------------------------------------

/// A small mixed-workload grid: every workload family, two protocols, two
/// seeds — enough scheduling freedom that a cross-worker leak would show.
std::vector<runner::ScenarioSpec> MixedSweep() {
  std::vector<runner::ScenarioSpec> specs;
  for (const char* workload : {"flight", "ycsb", "tpcc"}) {
    for (const char* protocol : {"2pl", "chiller"}) {
      for (uint64_t seed : {5, 17}) {
        runner::ScenarioSpec spec;
        spec.workload = workload;
        spec.protocol = protocol;
        spec.nodes = 2;
        spec.engines_per_node = 1;
        spec.concurrency = 3;
        spec.seed = seed;
        spec.warmup = kMillisecond;
        spec.measure = 3 * kMillisecond;
        if (std::string_view(workload) == "ycsb") {
          spec.options.Set("keys_per_partition", 1000);
          spec.options.Set("theta", 0.95);
        }
        specs.push_back(std::move(spec));
      }
    }
  }
  return specs;
}

/// Serializes every per-class counter and latency percentile of a sweep:
/// two sweeps are "byte-identical" iff these strings match.
std::string SweepFingerprint(
    const std::vector<StatusOr<runner::ScenarioResult>>& results) {
  std::string out;
  for (const auto& r : results) {
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) continue;
    Json params = Json::MakeObject();
    params["workload"] = r->spec.workload;
    params["seed"] = r->spec.seed;
    out += bench::ResultRow(r->spec.protocol, std::move(params), r->stats)
               .Dump();
    out += '\n';
  }
  return out;
}

TEST(SweepDeterminismTest, JobsOneAndJobsEightAreByteIdentical) {
  const auto specs = MixedSweep();
  const std::string serial =
      SweepFingerprint(runner::SweepExecutor(1).Run(specs));
  const std::string threaded =
      SweepFingerprint(runner::SweepExecutor(8).Run(specs));
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, threaded);
}

TEST(SweepDeterminismTest, RepeatedRunsAreByteIdentical) {
  const auto specs = MixedSweep();
  const std::string first =
      SweepFingerprint(runner::SweepExecutor(4).Run(specs));
  const std::string second =
      SweepFingerprint(runner::SweepExecutor(4).Run(specs));
  EXPECT_EQ(first, second);
}

/// The adaptive phase plan (sample -> replan -> migrate) exercises every
/// new moving part — the commit observer, the layout build, the quiesced
/// migration — and all of it must stay a pure function of the spec.
std::vector<runner::ScenarioSpec> AdaptiveSweep() {
  std::vector<runner::ScenarioSpec> specs;
  for (uint64_t seed : {3, 11, 29}) {
    runner::ScenarioSpec spec;
    spec.workload = "adaptive";
    spec.protocol = "chiller";
    spec.nodes = 3;
    spec.engines_per_node = 1;
    spec.concurrency = 3;
    spec.seed = seed;
    spec.options.Set("keys_per_partition", 2000);
    spec.options.Set("theta", 0.95);
    spec.phases = {
        runner::Phase::Warmup(kMillisecond),
        runner::Phase::Sample(2 * kMillisecond, /*rate=*/1.0),
        runner::Phase::Replan(),
        runner::Phase::Migrate(),
        runner::Phase::Warmup(kMillisecond),
        runner::Phase::Measure(3 * kMillisecond),
    };
    specs.push_back(std::move(spec));
  }
  return specs;
}

/// Open-loop and batched specs over two offered rates (one of them an
/// overload that sheds): the arrival clocks, the admission queue, and the
/// shed accounting must all stay pure functions of the spec regardless of
/// which worker thread runs the scenario.
std::vector<runner::ScenarioSpec> LoadModelSweep() {
  std::vector<runner::ScenarioSpec> specs;
  for (double offered : {40000.0, 4000000.0}) {
    for (const char* arrival : {"poisson", "uniform"}) {
      for (uint64_t seed : {5, 17}) {
        runner::ScenarioSpec spec;
        spec.workload = "ycsb";
        spec.protocol = "chiller";
        spec.nodes = 2;
        spec.engines_per_node = 1;
        spec.concurrency = 2;
        spec.seed = seed;
        spec.warmup = kMillisecond;
        spec.measure = 3 * kMillisecond;
        spec.options.Set("keys_per_partition", 1000);
        spec.options.Set("theta", 0.95);
        spec.load_model = "open";
        spec.offered_tps = offered;
        spec.arrival = arrival;
        spec.queue_cap = 8;
        specs.push_back(std::move(spec));
      }
    }
  }
  runner::ScenarioSpec batched;
  batched.workload = "ycsb";
  batched.protocol = "2pl";
  batched.nodes = 2;
  batched.engines_per_node = 1;
  batched.concurrency = 2;
  batched.seed = 23;
  batched.warmup = kMillisecond;
  batched.measure = 3 * kMillisecond;
  batched.options.Set("keys_per_partition", 1000);
  batched.load_model = "batched";
  batched.batch_size = 6;
  specs.push_back(std::move(batched));
  return specs;
}

TEST(SweepDeterminismTest, OpenLoopJobsOneAndJobsEightAreByteIdentical) {
  const auto specs = LoadModelSweep();
  const auto serial_results = runner::SweepExecutor(1).Run(specs);
  const std::string serial = SweepFingerprint(serial_results);
  const std::string threaded =
      SweepFingerprint(runner::SweepExecutor(8).Run(specs));
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, threaded);
  // The fingerprint must actually cover the new accounting: the overload
  // points shed, the light points do not.
  bool any_shed = false;
  for (const auto& r : serial_results) {
    ASSERT_TRUE(r.ok());
    if (r->spec.load_model != "open") continue;
    EXPECT_GT(r->stats.admitted, 0u);
    if (r->spec.offered_tps > 1000000.0) {
      EXPECT_GT(r->stats.shed, 0u);
      any_shed = true;
    } else {
      EXPECT_EQ(r->stats.shed, 0u);
    }
  }
  EXPECT_TRUE(any_shed);
}

TEST(SweepDeterminismTest, AdaptiveJobsOneAndJobsEightAreByteIdentical) {
  const auto specs = AdaptiveSweep();
  const auto serial_results = runner::SweepExecutor(1).Run(specs);
  const std::string serial = SweepFingerprint(serial_results);
  const std::string threaded =
      SweepFingerprint(runner::SweepExecutor(8).Run(specs));
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, threaded);
  // The loop must actually have engaged: records moved in every scenario.
  for (const auto& r : serial_results) {
    ASSERT_TRUE(r.ok());
    EXPECT_GT(r->adaptive.sampled_txns, 0u);
    EXPECT_GT(r->adaptive.migration.moved_records, 0u);
  }
}

/// Live relayout under traffic plus the continuous controller: the bucket
/// locks, the batch retries, the drift decisions, and the per-slice
/// timeline must all stay pure functions of the spec on any worker thread.
std::vector<runner::ScenarioSpec> LiveMigrationSweep() {
  std::vector<runner::ScenarioSpec> specs;
  for (uint64_t seed : {3, 11, 29}) {
    runner::ScenarioSpec spec;
    spec.workload = "adaptive";
    spec.protocol = "chiller";
    spec.nodes = 3;
    spec.engines_per_node = 1;
    spec.concurrency = 3;
    spec.seed = seed;
    spec.relayout_buckets = 8;
    spec.timeline_slice = 500 * kMicrosecond;
    spec.options.Set("keys_per_partition", 2000);
    spec.options.Set("theta", 0.95);
    spec.phases = {
        runner::Phase::Warmup(kMillisecond),
        runner::Phase::Sample(2 * kMillisecond, /*rate=*/1.0),
        runner::Phase::Replan(),
        runner::Phase::LiveMigrate(),
        runner::Phase::Warmup(kMillisecond),
        runner::Phase::Measure(3 * kMillisecond),
    };
    specs.push_back(std::move(spec));
  }
  runner::ScenarioSpec continuous;
  continuous.workload = "adaptive";
  continuous.protocol = "chiller";
  continuous.nodes = 3;
  continuous.engines_per_node = 1;
  continuous.concurrency = 3;
  continuous.seed = 17;
  continuous.continuous = true;
  continuous.warmup = kMillisecond;
  continuous.measure = 6 * kMillisecond;
  continuous.controller_period = kMillisecond;
  continuous.relayout_buckets = 8;
  continuous.options.Set("keys_per_partition", 2000);
  continuous.options.Set("theta", 0.95);
  specs.push_back(std::move(continuous));
  return specs;
}

/// Fingerprint covering the live-migration accounting on top of the
/// ResultRow stats: window commits/aborts, moved records, buckets, the
/// controller counters, and the full timeline.
std::string LiveFingerprint(
    const std::vector<StatusOr<runner::ScenarioResult>>& results) {
  std::string out = SweepFingerprint(results);
  for (const auto& r : results) {
    if (!r.ok()) continue;
    const runner::AdaptiveReport& a = r->adaptive;
    out += "moved=" + std::to_string(a.migration.moved_records) +
           " bytes=" + std::to_string(a.migration.moved_bytes) +
           " buckets=" + std::to_string(a.buckets_moved) +
           " win=[" + std::to_string(a.migration_start) + "," +
           std::to_string(a.migration_end) + "]" +
           " winc=" + std::to_string(a.migration_window_commits) +
           " wina=" + std::to_string(a.migration_window_aborts) +
           " epochs=" + std::to_string(a.controller_epochs) +
           " migs=" + std::to_string(a.controller_migrations) +
           " settled=" + std::to_string(a.controller_settled) +
           " rearms=" + std::to_string(a.controller_rearms) +
           " shadow=" + std::to_string(a.shadow_evals) +
           " drift=" + std::to_string(a.last_drift) +
           " peak=" + std::to_string(a.peak_streams) +
           " widens=" + std::to_string(a.governor_widens) +
           " narrows=" + std::to_string(a.governor_narrows) + "\n";
    for (const runner::TimelineSlice& s : a.timeline) {
      out += std::to_string(s.start) + ":" + std::to_string(s.end) + ":" +
             std::to_string(s.commits) + ":" +
             std::to_string(s.latency_ns_sum) + "\n";
    }
  }
  return out;
}

TEST(SweepDeterminismTest, LiveMigrationJobsOneAndJobsEightAreByteIdentical) {
  const auto specs = LiveMigrationSweep();
  const auto serial_results = runner::SweepExecutor(1).Run(specs);
  const std::string serial = LiveFingerprint(serial_results);
  const std::string threaded =
      LiveFingerprint(runner::SweepExecutor(8).Run(specs));
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, threaded);
  // The live path must actually have engaged: every phased scenario moved
  // records with commits flowing inside the relayout window.
  for (size_t i = 0; i + 1 < serial_results.size(); ++i) {
    const auto& r = serial_results[i];
    ASSERT_TRUE(r.ok());
    EXPECT_GT(r->adaptive.migration.moved_records, 0u);
    EXPECT_GT(r->adaptive.migration_window_commits, 0u);
  }
  const auto& cont = serial_results.back();
  ASSERT_TRUE(cont.ok());
  EXPECT_GT(cont->adaptive.controller_epochs, 0u);
}

// ---------------------------------------------------------------------------
// Sharded-simulator determinism: --shards runs one scenario across real
// threads (sim::ShardedSimulator) and must be byte-identical to --shards=1
// for every shard count, composed with any --jobs value. Fingerprints
// cover the full per-class stats and, for migration scenarios, the
// per-slice timeline.
// ---------------------------------------------------------------------------

std::vector<runner::ScenarioSpec> WithShards(
    std::vector<runner::ScenarioSpec> specs, uint32_t shards) {
  for (auto& s : specs) s.shards = shards;
  return specs;
}

/// Runs `base` at shards=1/jobs=1 as the reference, then asserts every
/// shards x jobs combination reproduces it byte for byte under
/// `fingerprint`.
template <typename Fp>
void ExpectShardInvariance(const std::vector<runner::ScenarioSpec>& base,
                           Fp fingerprint) {
  const std::string want =
      fingerprint(runner::SweepExecutor(1).Run(WithShards(base, 1)));
  EXPECT_FALSE(want.empty());
  for (uint32_t shards : {2u, 8u}) {
    for (uint32_t jobs : {1u, 8u}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " jobs=" + std::to_string(jobs));
      const std::string got = fingerprint(
          runner::SweepExecutor(jobs).Run(WithShards(base, shards)));
      EXPECT_EQ(got, want);
    }
  }
}

TEST(ShardDeterminismTest, ClosedLoopShardsTimesJobsAreByteIdentical) {
  // One spec per workload family (the seed-5 slice of the mixed grid)
  // keeps the 5x repetition affordable without losing family coverage.
  std::vector<runner::ScenarioSpec> base;
  for (auto& spec : MixedSweep()) {
    if (spec.seed == 5) base.push_back(std::move(spec));
  }
  ASSERT_FALSE(base.empty());
  ExpectShardInvariance(base, SweepFingerprint);
}

TEST(ShardDeterminismTest, OpenLoopShardsTimesJobsAreByteIdentical) {
  // The seed-5 slice: poisson + uniform arrivals at both offered rates
  // (one of them shedding), plus the batched spec.
  std::vector<runner::ScenarioSpec> base;
  for (auto& spec : LoadModelSweep()) {
    if (spec.seed == 5 || spec.load_model == "batched") {
      base.push_back(std::move(spec));
    }
  }
  ASSERT_FALSE(base.empty());
  ExpectShardInvariance(base, SweepFingerprint);
}

/// Scheduled admission (schedule/scheduler.h): classification, cross-engine
/// steering through the fabric, class-serialized admission, and the
/// temperature-aware shed policies must all stay pure functions of the
/// spec. The grid covers hash-affinity under the open model (a light point,
/// plus an overload point where drop-cold evicts queued work) and
/// batch-pack under the batched model.
std::vector<runner::ScenarioSpec> SchedulerSweep() {
  std::vector<runner::ScenarioSpec> specs;
  for (double offered : {60000.0, 4000000.0}) {
    runner::ScenarioSpec spec;
    spec.workload = "ycsb";
    spec.protocol = "2pl";
    spec.nodes = 3;
    spec.engines_per_node = 1;
    spec.concurrency = 2;
    spec.seed = 9;
    spec.warmup = kMillisecond;
    spec.measure = 3 * kMillisecond;
    spec.options.Set("keys_per_partition", 1000);
    spec.options.Set("theta", 0.95);  // hot enough that steering is busy
    spec.load_model = "open";
    spec.offered_tps = offered;
    spec.queue_cap = 6;
    spec.scheduler = "hash-affinity";
    if (offered > 1000000.0) spec.shed_policy = "drop-cold";
    specs.push_back(std::move(spec));
  }
  runner::ScenarioSpec packed;
  packed.workload = "ycsb";
  packed.protocol = "2pl";
  packed.nodes = 2;
  packed.engines_per_node = 2;
  packed.concurrency = 3;
  packed.seed = 13;
  packed.warmup = kMillisecond;
  packed.measure = 3 * kMillisecond;
  packed.options.Set("keys_per_partition", 1000);
  packed.options.Set("theta", 0.99);
  packed.load_model = "batched";
  packed.batch_size = 6;
  packed.scheduler = "batch-pack";
  specs.push_back(std::move(packed));
  return specs;
}

TEST(ShardDeterminismTest, SchedulerPoliciesShardsTimesJobsAreByteIdentical) {
  const auto specs = SchedulerSweep();
  ExpectShardInvariance(specs, SweepFingerprint);
  // The grid must actually exercise the machinery: the overload point
  // sheds, every point commits.
  const auto results = runner::SweepExecutor(1).Run(specs);
  bool any_shed = false;
  for (const auto& r : results) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_GT(r->stats.TotalCommits(), 0u);
    if (r->spec.offered_tps > 1000000.0) {
      EXPECT_GT(r->stats.shed, 0u);
      any_shed = true;
    }
  }
  EXPECT_TRUE(any_shed);
}

TEST(ShardDeterminismTest, ConcurrentStreamsShardsTimesJobsAreByteIdentical) {
  // The multi-stream migrator mutates shared state (bucket locks, the
  // partitioner indirection, per-unit cursors) from interleaved per-bucket
  // pipelines — all control-domain events, so any stream width must stay a
  // pure function of the spec for every shards x jobs combination. The
  // sweep runs the seed-3 phased plan at k = 1, 2, 4 plus a governed,
  // re-armable continuous spec on a rotating hot set (every new control
  // surface of the migrate subsystem at once).
  std::vector<runner::ScenarioSpec> base;
  for (uint32_t streams : {1u, 2u, 4u}) {
    runner::ScenarioSpec spec = LiveMigrationSweep().front();  // seed 3
    spec.migrate_streams = streams;
    base.push_back(std::move(spec));
  }
  runner::ScenarioSpec governed = LiveMigrationSweep().back();  // continuous
  governed.measure = 14 * kMillisecond;
  governed.governor = true;
  governed.governor_max_streams = 4;
  governed.governor_max_abort_share = 0.5;
  governed.rearm_threshold = 0.25;
  governed.options.Set("shift_every_us", uint64_t{8000});
  governed.options.Set("shift_stride", uint64_t{500});
  base.push_back(std::move(governed));
  ExpectShardInvariance(base, LiveFingerprint);

  // The sweep must exercise what it claims: wider runs actually streamed
  // concurrently and finished the identical move set faster.
  const auto results = runner::SweepExecutor(1).Run(WithShards(base, 1));
  ASSERT_TRUE(results[0].ok() && results[2].ok());
  EXPECT_EQ(results[0]->adaptive.migration.moved_records,
            results[2]->adaptive.migration.moved_records);
  EXPECT_GT(results[2]->adaptive.peak_streams, 1u);
  EXPECT_LT(results[2]->adaptive.migration.sim_time,
            results[0]->adaptive.migration.sim_time);
}

// ---------------------------------------------------------------------------
// Trace determinism: with tracing enabled the emitted trace bytes are a
// pure function of the spec — byte-identical for every shards x jobs
// combination — and enabling tracing never changes any result byte.
// ---------------------------------------------------------------------------

std::vector<runner::ScenarioSpec> WithTracing(
    std::vector<runner::ScenarioSpec> specs, uint32_t every) {
  for (auto& s : specs) s.trace_sample_every = every;
  return specs;
}

/// Concatenated standalone trace documents, spec order.
std::string TraceFingerprint(
    const std::vector<StatusOr<runner::ScenarioResult>>& results) {
  std::string out;
  for (const auto& r : results) {
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) continue;
    EXPECT_NE(r->trace, nullptr);
    if (r->trace != nullptr) out += r->trace->DumpJson();
  }
  return out;
}

/// The traced grid: one spec per workload family, one scheduled open-loop
/// point (classify/route instants), one live-migration plan
/// (migration-abort blocks) — every span family the recorder emits.
std::vector<runner::ScenarioSpec> TracedSweep() {
  std::vector<runner::ScenarioSpec> base;
  for (auto& spec : MixedSweep()) {
    if (spec.seed == 5) base.push_back(std::move(spec));
  }
  base.push_back(SchedulerSweep().front());
  base.push_back(LiveMigrationSweep().front());
  return WithTracing(std::move(base), 4);
}

TEST(TraceDeterminismTest, TraceBytesShardsTimesJobsAreByteIdentical) {
  const auto base = TracedSweep();
  ExpectShardInvariance(base, TraceFingerprint);
  const auto results = runner::SweepExecutor(1).Run(WithShards(base, 1));
  const std::string trace = TraceFingerprint(results);
  for (const auto& r : results) {
    ASSERT_TRUE(r.ok());
    EXPECT_GT(r->trace->events_recorded(), 0u);
  }
  // The grid must cover the span vocabulary it claims to.
  for (const char* needle :
       {"\"name\":\"attempt\"", "\"name\":\"commit\"",
        "\"name\":\"sched_classify\"", "\"name\":\"sched_route\"",
        "\"name\":\"driver.commits\""}) {
    EXPECT_NE(trace.find(needle), std::string::npos) << needle;
  }
}

TEST(TraceDeterminismTest, TracingNeverChangesResults) {
  std::vector<runner::ScenarioSpec> base;
  for (auto& spec : MixedSweep()) {
    if (spec.seed == 5) base.push_back(std::move(spec));
  }
  base.push_back(LiveMigrationSweep().front());
  const std::string off = LiveFingerprint(runner::SweepExecutor(1).Run(base));
  const std::string on = LiveFingerprint(
      runner::SweepExecutor(1).Run(WithTracing(base, 1)));
  EXPECT_FALSE(off.empty());
  EXPECT_EQ(off, on);
}

TEST(ShardDeterminismTest,
     ContinuousMigrationShardsTimesJobsAreByteIdentical) {
  // One live-migrate phase plan and the continuous-controller spec: bucket
  // locks, batch retries, drift decisions, and the timeline all under real
  // threads. LiveFingerprint covers the migration windows and every
  // timeline slice.
  std::vector<runner::ScenarioSpec> base;
  for (auto& spec : LiveMigrationSweep()) {
    if (spec.seed == 3 || spec.continuous) base.push_back(std::move(spec));
  }
  ASSERT_EQ(base.size(), 2u);
  ExpectShardInvariance(base, LiveFingerprint);
}

}  // namespace
}  // namespace chiller
