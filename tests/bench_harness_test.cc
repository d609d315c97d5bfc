// Tests for the shared bench harness: CLI flag parsing, the JSON
// utility + report emitter, the sweep skeleton, and the protocol name
// table.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_flags.h"
#include "bench/bench_report.h"
#include "bench/bench_sweep.h"
#include "runner/registry.h"
#include "runner/runner.h"
#include "workload/tpcc/tpcc_workload.h"

namespace chiller::bench {
namespace {

namespace tpcc = workload::tpcc;

// ---------------------------------------------------------------------------
// Flag parsing
// ---------------------------------------------------------------------------

Status Parse(std::vector<const char*> argv, BenchFlags* out) {
  argv.insert(argv.begin(), "bench");
  return ParseBenchFlags(static_cast<int>(argv.size()), argv.data(), out);
}

TEST(BenchFlagsTest, DefaultsSurviveEmptyArgv) {
  BenchFlags f;
  ASSERT_TRUE(Parse({}, &f).ok());
  EXPECT_EQ(f.protocol, "chiller");
  EXPECT_EQ(f.nodes, 8u);
  EXPECT_EQ(f.engines, 10u);
  EXPECT_EQ(f.concurrency, 4u);
  EXPECT_DOUBLE_EQ(f.warmup_ms, 3.0);
  EXPECT_DOUBLE_EQ(f.duration_ms, 15.0);
  EXPECT_EQ(f.seed, 1u);
  EXPECT_EQ(f.jobs, 1u);
  EXPECT_TRUE(f.emit_json);
  EXPECT_FALSE(f.help);
  EXPECT_FALSE(f.list_protocols);
  EXPECT_FALSE(f.list_workloads);
}

TEST(BenchFlagsTest, ParsesEveryFlag) {
  BenchFlags f;
  ASSERT_TRUE(Parse({"--protocol=occ", "--nodes=4", "--engines=2",
                     "--concurrency=7", "--warmup-ms=1.5", "--duration-ms=9",
                     "--theta=0.5", "--seed=42", "--jobs=3",
                     "--json=/tmp/out.json"},
                    &f)
                  .ok());
  EXPECT_EQ(f.protocol, "occ");
  EXPECT_EQ(f.nodes, 4u);
  EXPECT_EQ(f.engines, 2u);
  EXPECT_EQ(f.concurrency, 7u);
  EXPECT_DOUBLE_EQ(f.warmup_ms, 1.5);
  EXPECT_DOUBLE_EQ(f.duration_ms, 9.0);
  EXPECT_DOUBLE_EQ(f.theta, 0.5);
  EXPECT_EQ(f.seed, 42u);
  EXPECT_EQ(f.jobs, 3u);
  EXPECT_EQ(f.json_path, "/tmp/out.json");
  EXPECT_EQ(f.JsonPathFor("fig9"), "/tmp/out.json");
}

TEST(BenchFlagsTest, JobsZeroMeansAutoAndParses) {
  BenchFlags f;
  ASSERT_TRUE(Parse({"--jobs=0"}, &f).ok());
  EXPECT_EQ(f.jobs, 0u);  // 0 = all hardware threads, resolved by the sweep
}

TEST(BenchFlagsTest, ListFlagsParse) {
  BenchFlags f;
  ASSERT_TRUE(Parse({"--list-protocols"}, &f).ok());
  EXPECT_TRUE(f.list_protocols);
  BenchFlags g;
  ASSERT_TRUE(Parse({"--list-workloads"}, &g).ok());
  EXPECT_TRUE(g.list_workloads);
}

TEST(BenchFlagsTest, NoJsonAndDefaultPath) {
  BenchFlags f;
  ASSERT_TRUE(Parse({"--no-json"}, &f).ok());
  EXPECT_FALSE(f.emit_json);
  EXPECT_EQ(f.JsonPathFor("fig9"), "BENCH_fig9.json");
}

TEST(BenchFlagsTest, HelpShortCircuits) {
  BenchFlags f;
  ASSERT_TRUE(Parse({"--help", "--garbage"}, &f).ok());
  EXPECT_TRUE(f.help);
}

TEST(BenchFlagsTest, UnknownProtocolFailsAtParse) {
  // Caught before any bench builds a scenario, naming the valid spellings.
  BenchFlags f;
  const Status st = Parse({"--protocol=nope"}, &f);
  ASSERT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_EQ(st.message(), "unknown protocol 'nope' (known: 2pl, chiller, occ)");
}

TEST(BenchFlagsTest, RejectsUnknownFlagAndBadValues) {
  BenchFlags f;
  EXPECT_TRUE(Parse({"--wat=1"}, &f).IsInvalidArgument());
  EXPECT_TRUE(Parse({"positional"}, &f).IsInvalidArgument());
  EXPECT_TRUE(Parse({"--nodes=banana"}, &f).IsInvalidArgument());
  EXPECT_TRUE(Parse({"--nodes=0"}, &f).IsInvalidArgument());
  EXPECT_TRUE(Parse({"--nodes=1"}, &f).IsInvalidArgument());  // 2 replicas
  EXPECT_TRUE(Parse({"--duration-ms=0"}, &f).IsInvalidArgument());
  EXPECT_TRUE(Parse({"--seed="}, &f).IsInvalidArgument());
  EXPECT_TRUE(Parse({"--jobs=banana"}, &f).IsInvalidArgument());
  // std::from_chars accepts nan and inf; a NaN warmup cast to SimTime
  // would hang the sweep, so every float flag refuses them.
  for (const char* arg :
       {"--warmup-ms=nan", "--duration-ms=inf", "--theta=-inf",
        "--offered-tps=nan", "--warmup-ms=NAN", "--duration-ms=infinity"}) {
    f = BenchFlags{};
    const Status st = Parse({arg}, &f);
    EXPECT_TRUE(st.IsInvalidArgument()) << arg;
    EXPECT_NE(st.message().find("bad value"), std::string::npos) << arg;
  }
  // Removed flags are unknown, not silently accepted.
  for (const char* arg : {"--mem-budget-mb=64", "--sched-classes=4"}) {
    f = BenchFlags{};
    const Status st = Parse({arg}, &f);
    EXPECT_TRUE(st.IsInvalidArgument()) << arg;
    EXPECT_NE(st.message().find("unknown flag"), std::string::npos) << arg;
  }
}

TEST(BenchFlagsTest, UsageMentionsEveryFlag) {
  const std::string usage = UsageString("fig9");
  for (const char* flag :
       {"--protocol", "--nodes", "--engines", "--concurrency", "--warmup-ms",
        "--duration-ms", "--theta", "--seed", "--load-model", "--offered-tps",
        "--arrival", "--queue-cap", "--jobs", "--json",
        "--no-json", "--list-protocols", "--list-workloads", "--help"}) {
    EXPECT_NE(usage.find(flag), std::string::npos) << flag;
  }
}

TEST(BenchFlagsTest, LoadModelFlagsParseAndApply) {
  // Every flag BaseSpec maps, each at a value that is neither the flag's
  // default nor the spec's.
  BenchFlags f;
  ASSERT_TRUE(Parse({"--protocol=occ", "--nodes=3", "--engines=2",
                     "--concurrency=5", "--seed=9", "--warmup-ms=1.5",
                     "--duration-ms=2.5", "--load-model=open",
                     "--offered-tps=250000", "--arrival=uniform",
                     "--queue-cap=16", "--scheduler=hash-affinity",
                     "--shards=2", "--trace-sample-every=7"},
                    &f)
                  .ok());
  const runner::ScenarioSpec spec = f.BaseSpec();
  EXPECT_EQ(spec.protocol, "occ");
  EXPECT_EQ(spec.nodes, 3u);
  EXPECT_EQ(spec.engines_per_node, 2u);
  EXPECT_EQ(spec.concurrency, 5u);
  EXPECT_EQ(spec.seed, 9u);
  EXPECT_EQ(spec.warmup, 1500 * kMicrosecond);
  EXPECT_EQ(spec.measure, 2500 * kMicrosecond);
  EXPECT_EQ(spec.load_model, "open");
  EXPECT_DOUBLE_EQ(spec.offered_tps, 250000.0);
  EXPECT_EQ(spec.arrival, "uniform");
  EXPECT_EQ(spec.queue_cap, 16u);
  EXPECT_EQ(spec.scheduler, "hash-affinity");
  EXPECT_EQ(spec.shards, 2u);
  EXPECT_EQ(spec.trace_sample_every, 7u);

  // --trace-out alone traces every transaction.
  BenchFlags traced;
  ASSERT_TRUE(Parse({"--trace-out=trace.json"}, &traced).ok());
  EXPECT_EQ(traced.BaseSpec().trace_sample_every, 1u);
  BenchFlags untraced;
  ASSERT_TRUE(Parse({}, &untraced).ok());
  EXPECT_EQ(untraced.BaseSpec().trace_sample_every, 0u);
}

TEST(BenchFlagsTest, LoadModelFlagsAreValidated) {
  BenchFlags f;
  EXPECT_TRUE(Parse({"--load-model=nope"}, &f).IsInvalidArgument());
  f = BenchFlags{};
  // Open without an offered rate is caught at parse time, not per scenario.
  EXPECT_TRUE(Parse({"--load-model=open"}, &f).IsInvalidArgument());
  f = BenchFlags{};
  EXPECT_TRUE(Parse({"--offered-tps=banana"}, &f).IsInvalidArgument());
  // Flags of removed admission features are unknown flags, not no-ops.
  for (const char* gone : {"--batch-size=4", "--shed-policy=drop-new"}) {
    f = BenchFlags{};
    const Status st = Parse({gone}, &f);
    ASSERT_TRUE(st.IsInvalidArgument()) << gone;
    EXPECT_NE(st.message().find("unknown flag"), std::string::npos)
        << st.message();
  }
  // The default closed model never needs an offered rate.
  f = BenchFlags{};
  EXPECT_TRUE(Parse({}, &f).ok());
  EXPECT_EQ(f.load_model, "closed");
}

TEST(BenchFlagsTest, UsageListsRegisteredProtocols) {
  const std::string usage = UsageString("fig9");
  for (const std::string& name : runner::Protocols().Names()) {
    EXPECT_NE(usage.find(name), std::string::npos) << name;
  }
}

TEST(BenchFlagsTest, UsageReflectsBenchSpecificDefaults) {
  BenchFlags d;
  d.duration_ms = 30.0;
  d.theta = 0.6;
  const std::string usage = UsageString("fig7", d);
  EXPECT_NE(usage.find("window, ms (default 30)"), std::string::npos)
      << usage;
  EXPECT_NE(usage.find("applicable (default 0.6)"), std::string::npos)
      << usage;
}

TEST(BenchFlagsTest, RecordsGivenFlagsInArgvOrder) {
  BenchFlags f;
  ASSERT_TRUE(Parse({"--jobs=2", "--no-json", "--protocol=2pl"}, &f).ok());
  EXPECT_EQ(f.given,
            (std::vector<std::string>{"jobs", "no-json", "protocol"}));
}

TEST(BenchFlagsTest, RejectUnreadFlagsRefusesEveryGivenUnreadFlag) {
  // fig9's refusal set: its grid fixes protocol and concurrency, and TPC-C
  // has no Zipf theta.
  const auto fig9_unread = {std::string_view("protocol"),
                            std::string_view("concurrency"),
                            std::string_view("theta")};
  BenchFlags f;
  ASSERT_TRUE(Parse({"--nodes=2", "--jobs=2"}, &f).ok());
  EXPECT_TRUE(RejectUnreadFlags(f, fig9_unread).ok());

  // Refused even at the shared default value, and named in argv order.
  f = BenchFlags{};
  ASSERT_TRUE(
      Parse({"--nodes=2", "--concurrency=4", "--protocol=chiller"}, &f).ok());
  const Status st = RejectUnreadFlags(f, fig9_unread);
  ASSERT_TRUE(st.IsInvalidArgument());
  EXPECT_EQ(st.message().rfind("--concurrency ", 0), 0u) << st.message();

  // A flag the bench reads is never refused.
  f = BenchFlags{};
  ASSERT_TRUE(Parse({"--protocol=2pl"}, &f).ok());
  EXPECT_TRUE(RejectUnreadFlags(f, {"theta"}).ok());
}

TEST(BenchFlagsTest, AnalysisBenchesRefuseSimulatorFlags) {
  // Each simulator flag alone is refused by the analysis benches' set, and
  // the refusal names it (an open model also needs a rate, but
  // --load-model comes first in argv).
  const std::vector<std::vector<const char*>> cases = {
      {"--load-model=open", "--offered-tps=1000"},
      {"--offered-tps=1000"},
      {"--arrival=uniform"},
      {"--queue-cap=8"},
      {"--scheduler=hash-affinity"},
      {"--nodes=2"},
      {"--duration-ms=1"},
      {"--shards=2"}};
  for (const auto& argv : cases) {
    BenchFlags f;
    ASSERT_TRUE(Parse(argv, &f).ok()) << argv[0];
    const Status refused = RejectUnreadFlags(f, kNoSimulatorFlags);
    ASSERT_TRUE(refused.IsInvalidArgument()) << argv[0];
    const std::string flag(argv[0], std::string_view(argv[0]).find('='));
    EXPECT_EQ(refused.message().rfind(flag + " ", 0), 0u)
        << refused.message();
  }
  // What they do read stays accepted.
  BenchFlags f;
  ASSERT_TRUE(
      Parse({"--jobs=2", "--seed=3", "--theta=0.6", "--json=x.json"}, &f)
          .ok());
  EXPECT_TRUE(RejectUnreadFlags(f, kNoSimulatorFlags).ok());
}

TEST(BenchFlagsTest, RelayoutBenchesRefuseTheOpenLoopFlags) {
  // fig_live_migration and fig_adaptive_relayout compare layouts by
  // closed-loop throughput: each open-loop knob, and --scheduler, is
  // refused alone and named.
  const std::vector<std::vector<const char*>> cases = {
      {"--load-model=open", "--offered-tps=1000"},
      {"--offered-tps=1000"},
      {"--arrival=uniform"},
      {"--queue-cap=8"},
      {"--scheduler=fifo"}};
  for (const auto& argv : cases) {
    BenchFlags f;
    ASSERT_TRUE(Parse(argv, &f).ok()) << argv[0];
    const Status refused = RejectUnreadFlags(f, kClosedLoopOnlyFlags);
    ASSERT_TRUE(refused.IsInvalidArgument()) << argv[0];
    const std::string flag(argv[0], std::string_view(argv[0]).find('='));
    EXPECT_EQ(refused.message().rfind(flag + " ", 0), 0u)
        << refused.message();
  }
  // Topology, protocol, theta, concurrency and the sweep knobs stay read.
  BenchFlags f;
  ASSERT_TRUE(Parse({"--protocol=2pl", "--nodes=2", "--engines=2",
                     "--concurrency=2", "--theta=0.5", "--seed=3",
                     "--warmup-ms=1", "--duration-ms=2", "--jobs=2",
                     "--shards=2", "--trace-sample-every=4"},
                    &f)
                  .ok());
  EXPECT_TRUE(RejectUnreadFlags(f, kClosedLoopOnlyFlags).ok());
}

TEST(BenchFlagsTest, UnhostableSchedulerExitsBeforeAnyOutput) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  const char* argv[] = {"fig9", "--scheduler=hash-affinity"};
  // A closed-loop bench exits 1 at parse time, naming the mismatch: it
  // never returns to print a banner or run a scenario.
  EXPECT_EXIT(
      {
        ParseBenchFlagsOrExit(2, argv, "fig9", {},
                              {"protocol", "concurrency", "theta"});
        std::fputs("banner", stdout);
        std::exit(0);
      },
      testing::ExitedWithCode(1),
      "fig9: scheduler 'hash-affinity' steers an admission queue and needs "
      "the open load model");
  // A bench that never reads --scheduler keeps its refusal message.
  EXPECT_EXIT(ParseBenchFlagsOrExit(2, argv, "latency", {}, {"scheduler"}),
              testing::ExitedWithCode(1),
              "latency: --scheduler has no effect in this bench");
  // Under the open loop the same scheduler parses.
  const char* open_argv[] = {"fig9", "--scheduler=hash-affinity",
                             "--load-model=open", "--offered-tps=1000"};
  const BenchFlags f = ParseBenchFlagsOrExit(4, open_argv, "fig9");
  EXPECT_EQ(f.scheduler, "hash-affinity");
}

// ---------------------------------------------------------------------------
// JSON utility
// ---------------------------------------------------------------------------

TEST(JsonTest, DumpParseRoundtrip) {
  Json doc = Json::MakeObject();
  doc["name"] = "fig9";
  doc["count"] = 301;
  doc["rate"] = 0.25;
  doc["flag"] = true;
  doc["nothing"] = nullptr;
  doc["arr"].Append(1);
  doc["arr"].Append("two");
  doc["nested"]["deep"] = 7;

  for (int indent : {0, 2}) {
    auto parsed = Json::Parse(doc.Dump(indent));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed->Get("name")->AsString(), "fig9");
    EXPECT_DOUBLE_EQ(parsed->Get("count")->AsDouble(), 301);
    EXPECT_DOUBLE_EQ(parsed->Get("rate")->AsDouble(), 0.25);
    EXPECT_TRUE(parsed->Get("flag")->AsBool());
    EXPECT_TRUE(parsed->Get("nothing")->is_null());
    ASSERT_EQ(parsed->Get("arr")->AsArray().size(), 2u);
    EXPECT_EQ(parsed->Get("arr")->AsArray()[1].AsString(), "two");
    EXPECT_DOUBLE_EQ(parsed->Get("nested")->Get("deep")->AsDouble(), 7);
  }
}

TEST(JsonTest, EscapesStrings) {
  Json doc = Json::MakeObject();
  doc["s"] = std::string("a\"b\\c\nd");
  auto parsed = Json::Parse(doc.Dump());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Get("s")->AsString(), "a\"b\\c\nd");
}

TEST(JsonTest, RejectsMalformedInput) {
  for (const char* bad : {"", "{", "[1,", "{\"a\":}", "tru", "01x",
                          "{\"a\":1} trailing", "\"unterminated"}) {
    EXPECT_FALSE(Json::Parse(bad).ok()) << bad;
  }
}

// ---------------------------------------------------------------------------
// Report emitter
// ---------------------------------------------------------------------------

/// A small real measurement so the latency histograms are populated.
cc::RunStats SmallTpccRun(const std::string& proto) {
  runner::ScenarioSpec spec;
  spec.workload = "tpcc";
  spec.protocol = proto;
  spec.nodes = 2;
  spec.engines_per_node = 1;
  spec.concurrency = 2;
  spec.seed = 3;
  spec.warmup = kMillisecond;
  spec.measure = 2 * kMillisecond;
  auto result = runner::ScenarioRunner::Run(spec);
  CHILLER_CHECK(result.ok()) << result.status().ToString();
  return result->stats;
}

TEST(BenchReportTest, EmittedJsonParsesAndHasRequiredKeys) {
  BenchReport report("harness_test");
  report.SetConfig("nodes", 2);
  report.SetConfig("engines_per_node", 1);

  const cc::RunStats stats = SmallTpccRun("chiller");
  ASSERT_GT(stats.TotalCommits(), 0u);
  Json params = Json::MakeObject();
  params["concurrency"] = 2;
  report.AddRun("chiller", std::move(params), stats);

  const std::string path =
      testing::TempDir() + "/BENCH_harness_test.json";
  ASSERT_TRUE(report.WriteFile(path).ok());

  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  auto parsed = Json::Parse(buf.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  EXPECT_EQ(parsed->Get("bench")->AsString(), "harness_test");
  EXPECT_DOUBLE_EQ(parsed->Get("config")->Get("nodes")->AsDouble(), 2);
  const auto& results = parsed->Get("results")->AsArray();
  ASSERT_EQ(results.size(), 1u);
  const Json& row = results[0];
  EXPECT_EQ(row.Get("protocol")->AsString(), "chiller");
  EXPECT_DOUBLE_EQ(row.Get("params")->Get("concurrency")->AsDouble(), 2);
  for (const char* key : {"throughput_tps", "abort_rate", "latency_p50_ns",
                          "latency_p99_ns", "latency_mean_ns", "commits",
                          "attempts"}) {
    ASSERT_TRUE(row.Has(key)) << key;
    EXPECT_TRUE(row.Get(key)->is_number()) << key;
  }
  EXPECT_GT(row.Get("throughput_tps")->AsDouble(), 0.0);
  EXPECT_GT(row.Get("latency_p99_ns")->AsDouble(), 0.0);
  EXPECT_GE(row.Get("latency_p99_ns")->AsDouble(),
            row.Get("latency_p50_ns")->AsDouble());
  std::remove(path.c_str());
}

TEST(BenchReportTest, QueueFieldsAppearOnlyForOpenLoopRuns) {
  // A closed-loop run never offers load through an admission queue, and
  // its row must keep the historical shape (committed BENCH_*.json files
  // are diffed byte-for-byte).
  const cc::RunStats closed = SmallTpccRun("chiller");
  const Json closed_row = ResultRow("chiller", Json::MakeObject(), closed);
  for (const char* key : {"admitted", "shed", "shed_rate",
                          "queue_delay_p50_ns", "queue_delay_p99_ns",
                          "queue_delay_mean_ns"}) {
    EXPECT_FALSE(closed_row.Has(key)) << key;
  }

  // Emission keys off the load model, not the counters: an open-loop row
  // keeps the queue fields even when its window saw no arrivals.
  cc::RunStats quiet = closed;
  quiet.open_loop = true;
  const Json quiet_row = ResultRow("chiller", Json::MakeObject(), quiet);
  EXPECT_TRUE(quiet_row.Has("admitted"));
  EXPECT_TRUE(quiet_row.Has("queue_delay_p99_ns"));

  cc::RunStats open = closed;
  open.open_loop = true;
  open.admitted = 90;
  open.shed = 10;
  open.queue_delay.Add(1000);
  open.queue_delay.Add(3000);
  const Json open_row = ResultRow("chiller", Json::MakeObject(), open);
  for (const char* key : {"admitted", "shed", "shed_rate",
                          "queue_delay_p50_ns", "queue_delay_p99_ns",
                          "queue_delay_mean_ns"}) {
    ASSERT_TRUE(open_row.Has(key)) << key;
  }
  EXPECT_DOUBLE_EQ(open_row.Get("shed_rate")->AsDouble(), 0.1);
  EXPECT_GT(open_row.Get("queue_delay_p99_ns")->AsDouble(), 0.0);
}

// ---------------------------------------------------------------------------
// Sweep skeleton
// ---------------------------------------------------------------------------

runner::ScenarioSpec TinyYcsb(uint64_t seed) {
  runner::ScenarioSpec spec;
  spec.workload = "ycsb";
  spec.protocol = "2pl";
  spec.nodes = 2;
  spec.engines_per_node = 1;
  spec.seed = seed;
  spec.warmup = kMillisecond;
  spec.measure = kMillisecond;
  spec.options.Set("keys_per_partition", 1000);
  return spec;
}

TEST(BenchSweepTest, ReturnsUnwrappedResultsInSpecOrder) {
  BenchFlags flags;
  flags.jobs = 2;
  Sweep sweep(flags, "test");
  const std::vector<runner::ScenarioSpec> specs = {TinyYcsb(5), TinyYcsb(2),
                                                   TinyYcsb(9)};
  const auto results = sweep.Run(specs);
  ASSERT_EQ(results.size(), specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(results[i].spec, specs[i]);
    EXPECT_GT(results[i].stats.TotalCommits(), 0u);
  }
}

TEST(BenchSweepDeathTest, FailedScenarioExitsOneAndNamesIt) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  BenchFlags flags;
  Sweep sweep(flags, "test");
  std::vector<runner::ScenarioSpec> specs = {TinyYcsb(1), TinyYcsb(2)};
  specs[1].replication_degree = 3;  // more copies than nodes
  EXPECT_EXIT(
      sweep.Run(specs), testing::ExitedWithCode(1),
      "test: scenario 1 \\(2pl 2x1 .*\\) failed: .*replication_degree");
}

TEST(BenchKneeTest, LastSustainedPointIsTheKnee) {
  // {offered, throughput, exec p99, queue p99, shed rate}, ascending.
  const std::vector<LoadPoint> points = {
      {100, 100, 50, 10, 0.0},   // sustained
      {200, 200, 50, 80, 0.0},   // queue p99 above exec p99
      {300, 290, 60, 60, 0.0},   // queue p99 equal to exec p99: sustained
      {400, 350, 60, 10, 1e-6},  // sheds: not sustained
  };
  // The last sustained point wins, even after an unsustained one.
  EXPECT_DOUBLE_EQ(Knee(points), 300.0);
  EXPECT_DOUBLE_EQ(Knee({points[0], points[1]}), 100.0);
  // Any shed point is not sustained, however short its queue.
  EXPECT_DOUBLE_EQ(Knee({points[3]}), 0.0);
  EXPECT_DOUBLE_EQ(Knee({}), 0.0);
}

// ---------------------------------------------------------------------------
// Protocol name table
// ---------------------------------------------------------------------------

class ProtocolRegistryTest : public testing::Test {
 protected:
  ProtocolRegistryTest() {
    cc::ClusterConfig cfg;
    cfg.topology = net::Topology{.num_nodes = 2,
                                 .engines_per_node = 1,
                                 .replication_degree = 2};
    cfg.schema = tpcc::Schema();
    cluster_ = std::make_unique<cc::Cluster>(cfg);
    partitioner_ = std::make_unique<tpcc::TpccPartitioner>(2);
    repl_ = std::make_unique<cc::ReplicationManager>(cluster_.get());
  }

  StatusOr<std::unique_ptr<cc::Protocol>> Make(const std::string& name) {
    return runner::Protocols().Make(
        name, cluster_.get(), partitioner_.get(), repl_.get());
  }

  std::unique_ptr<cc::Cluster> cluster_;
  std::unique_ptr<tpcc::TpccPartitioner> partitioner_;
  std::unique_ptr<cc::ReplicationManager> repl_;
};

TEST_F(ProtocolRegistryTest, BuildsEveryRegisteredProtocol) {
  const std::vector<std::string> names = runner::Protocols().Names();
  ASSERT_EQ(names, (std::vector<std::string>{"2pl", "chiller", "occ"}));
  for (const std::string& name : names) {
    auto proto = Make(name);
    ASSERT_TRUE(proto.ok()) << name;
    ASSERT_NE(proto.value(), nullptr) << name;
    EXPECT_NE(proto.value()->name(), nullptr) << name;
  }
}

TEST_F(ProtocolRegistryTest, UnknownNameIsInvalidArgumentNotAbort) {
  for (const char* unknown : {"definitely-not-a-protocol", "chiller-plain"}) {
    auto proto = Make(unknown);
    ASSERT_FALSE(proto.ok()) << unknown;
    EXPECT_TRUE(proto.status().IsInvalidArgument()) << unknown;
    // The message should steer the user to valid spellings.
    for (const std::string& name : runner::Protocols().Names()) {
      EXPECT_NE(proto.status().message().find(name), std::string::npos)
          << name;
    }
  }
}

}  // namespace
}  // namespace chiller::bench
