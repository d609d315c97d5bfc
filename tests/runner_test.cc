// Tests for the scenario subsystem: OptionMap and ParseKnobs, the
// workload/protocol name tables, ScenarioRunner wiring, the ycsb workload's
// knobs, every workload's knob table, and SweepExecutor ordering.
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "runner/options.h"
#include "runner/registry.h"
#include "runner/runner.h"
#include "runner/sweep.h"
#include "workload/ycsb.h"

namespace chiller::runner {
namespace {

// ---------------------------------------------------------------------------
// OptionMap
// ---------------------------------------------------------------------------

TEST(OptionMapTest, DoubleRoundtripIsExact) {
  OptionMap o;
  const double v = 0.1234567890123456789;  // forces the %.17g path
  o.Set("x", v);
  double x = 0.0;
  const Status st = ParseKnobs(o, "test", {{"x", &x, 0.0, 1.0}});
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(x, v);
}

TEST(OptionMapTest, KeysAreSortedAndToStringStable) {
  OptionMap o;
  o.Set("b", 2);
  o.Set("a", 1);
  EXPECT_EQ(o.Keys(), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(o.ToString(), "a=1 b=2");
}

// ---------------------------------------------------------------------------
// ParseKnobs
// ---------------------------------------------------------------------------

struct Fields {
  uint32_t u32 = 1;
  uint64_t u64 = 2;
  int64_t i64 = 3;
  double ratio = 0.5;
  std::string name = "a";

  std::vector<Knob> Knobs() {
    return {{"u32", &u32, 1},
            {"u64", &u64},
            {"i64", &i64, -10, 10},
            {"ratio", &ratio, 0.0, 1.0, /*hi_open=*/true},
            {"name", &name, {"a", "b"}}};
  }
};

TEST(ParseKnobsTest, EachFieldTypeParsesAndAbsentKnobsKeepDefaults) {
  OptionMap o;
  o.Set("u64", uint64_t{18446744073709551615u});
  o.Set("i64", "-10");
  o.Set("name", "b");
  Fields f;
  const Status st = ParseKnobs(o, "t", f.Knobs());
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(f.u32, 1u);
  EXPECT_EQ(f.u64, 18446744073709551615u);
  EXPECT_EQ(f.i64, -10);
  EXPECT_EQ(f.ratio, 0.5);
  EXPECT_EQ(f.name, "b");
}

TEST(ParseKnobsTest, RefusesMalformedOverflowingNonFiniteAndOutOfRange) {
  const std::pair<const char*, const char*> bad[] = {
      {"u32", "0"},      {"u32", "4294967296"},
      {"u32", "-1"},     {"u32", "1.5"},
      {"u32", ""},       {"u64", "18446744073709551616"},
      {"i64", "11"},     {"i64", "-11"},
      {"i64", "x"},      {"ratio", "1"},  // the range is [0, 1)
      {"ratio", "-0.1"}, {"ratio", "nan"},
      {"ratio", "inf"},  {"ratio", "1e400"},
      {"ratio", "0.5x"}, {"name", "c"},
      {"name", ""},
  };
  for (const auto& [knob, text] : bad) {
    OptionMap o;
    o.Set(knob, text);
    Fields f;
    const Status st = ParseKnobs(o, "t", f.Knobs());
    EXPECT_TRUE(st.IsInvalidArgument()) << knob << "=" << text;
    EXPECT_NE(st.message().find("t " + std::string(knob) + " must be "),
              std::string::npos)
        << st.ToString();
  }
  OptionMap typo;
  typo.Set("ratoi", 0.5);
  Fields f;
  EXPECT_EQ(ParseKnobs(typo, "t", f.Knobs()).message(),
            "unknown option 'ratoi' (known: u32, u64, i64, ratio, name)");
}

// ---------------------------------------------------------------------------
// Name tables
// ---------------------------------------------------------------------------

TEST(RegistryTest, BuiltinsAreRegistered) {
  EXPECT_EQ(Workloads().Names(),
            (std::vector<std::string>{"adaptive", "adaptive-tpcc", "flight",
                                      "instacart", "tpcc", "ycsb"}));
  EXPECT_EQ(Protocols().Names(),
            (std::vector<std::string>{"2pl", "chiller", "occ"}));
}

TEST(RegistryTest, UnknownWorkloadNamesAlternatives) {
  ScenarioSpec spec;
  spec.workload = "not-a-workload";
  auto result = ScenarioRunner::Run(spec);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
  EXPECT_NE(result.status().message().find("ycsb"), std::string::npos);
}

TEST(RegistryTest, UnknownOptionFailsTheScenario) {
  ScenarioSpec spec;
  spec.workload = "ycsb";
  spec.nodes = 2;
  spec.options.Set("not-a-knob", 1);
  auto result = ScenarioRunner::Run(spec);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
  EXPECT_NE(result.status().message().find("not-a-knob"), std::string::npos);
}

// ---------------------------------------------------------------------------
// ScenarioRunner
// ---------------------------------------------------------------------------

ScenarioSpec SmallYcsb() {
  ScenarioSpec spec;
  spec.workload = "ycsb";
  spec.protocol = "chiller";
  spec.nodes = 3;
  spec.engines_per_node = 1;
  spec.concurrency = 2;
  spec.seed = 11;
  spec.warmup = kMillisecond;
  spec.measure = 4 * kMillisecond;
  spec.options.Set("keys_per_partition", 2000);
  spec.options.Set("theta", 0.9);
  return spec;
}

TEST(ScenarioRunnerTest, ValidateRejectsDegenerateSpecs) {
  ScenarioSpec spec = SmallYcsb();
  spec.nodes = 0;
  EXPECT_TRUE(ScenarioRunner::Validate(spec).IsInvalidArgument());
  spec = SmallYcsb();
  spec.concurrency = 0;
  EXPECT_TRUE(ScenarioRunner::Validate(spec).IsInvalidArgument());
  spec = SmallYcsb();
  spec.measure = 0;
  EXPECT_TRUE(ScenarioRunner::Validate(spec).IsInvalidArgument());
  // Replicas land on distinct nodes: a degree above the node count is a
  // Status, not the cluster's CHECK.
  spec = SmallYcsb();
  spec.nodes = 1;
  EXPECT_TRUE(ScenarioRunner::Validate(spec).IsInvalidArgument());
  spec.replication_degree = 1;
  EXPECT_TRUE(ScenarioRunner::Validate(spec).ok());
}

// An unknown workload or protocol fails in Validate, before Wire would
// build and load the workload, with the name table's own message.
TEST(ScenarioRunnerTest, ValidateChecksNamesFirst) {
  ScenarioSpec spec = SmallYcsb();
  spec.protocol = "nope";
  spec.nodes = 0;  // also degenerate: the name is reported first
  Status st = ScenarioRunner::Validate(spec);
  ASSERT_TRUE(st.IsInvalidArgument());
  EXPECT_EQ(st.message(), "unknown protocol 'nope' (known: 2pl, chiller, occ)");
  spec = SmallYcsb();
  spec.workload = "nope";
  st = ScenarioRunner::Validate(spec);
  ASSERT_TRUE(st.IsInvalidArgument());
  EXPECT_EQ(st.message().rfind("unknown workload 'nope' (known: ", 0), 0u)
      << st.message();
}

TEST(ScenarioRunnerTest, ValidateChecksLoadModelKnobs) {
  ScenarioSpec spec = SmallYcsb();
  spec.load_model = "nope";
  EXPECT_TRUE(ScenarioRunner::Validate(spec).IsInvalidArgument());

  spec = SmallYcsb();
  spec.load_model = "open";  // offered_tps still 0
  EXPECT_TRUE(ScenarioRunner::Validate(spec).IsInvalidArgument());
  spec.offered_tps = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(ScenarioRunner::Validate(spec).IsInvalidArgument());
  spec.offered_tps = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(ScenarioRunner::Validate(spec).IsInvalidArgument());
  spec.offered_tps = 50000;
  EXPECT_TRUE(ScenarioRunner::Validate(spec).ok());
  spec.queue_cap = 0;
  EXPECT_TRUE(ScenarioRunner::Validate(spec).IsInvalidArgument());
  spec.queue_cap = 8;
  spec.arrival = "bursty";
  EXPECT_TRUE(ScenarioRunner::Validate(spec).IsInvalidArgument());

  // A removed model is an unknown name: a Status listing what ships.
  spec = SmallYcsb();
  spec.load_model = "batched";
  const Status st = ScenarioRunner::Validate(spec);
  ASSERT_TRUE(st.IsInvalidArgument());
  EXPECT_NE(st.message().find("closed, open"), std::string::npos)
      << st.message();
}

TEST(ScenarioRunnerTest, WireExposesUsableEnv) {
  auto env = ScenarioRunner::Wire(SmallYcsb());
  ASSERT_TRUE(env.ok()) << env.status().ToString();
  EXPECT_EQ(env->cluster->num_engines(), 3u);
  EXPECT_GT(env->cluster->TotalPrimaryRecords(), 0u);
  ASSERT_NE(env->protocol, nullptr);
  auto stats = env->driver->Run(kMillisecond, 2 * kMillisecond);
  env->driver->Quiesce();
  EXPECT_GT(stats.TotalCommits(), 0u);
}

TEST(ScenarioRunnerTest, RunsEveryWorkloadUnderEveryProtocol) {
  for (const std::string& workload : Workloads().Names()) {
    for (const std::string& protocol : Protocols().Names()) {
      ScenarioSpec spec;
      spec.workload = workload;
      spec.protocol = protocol;
      spec.nodes = 2;
      spec.engines_per_node = 1;
      spec.concurrency = 2;
      spec.warmup = kMillisecond;
      spec.measure = 2 * kMillisecond;
      if (workload == "instacart") {
        // Keep the layout build cheap: a small catalog and trace.
        spec.options.Set("num_products", 2000);
        spec.options.Set("trace_txns", 500);
      }
      if (workload == "ycsb") spec.options.Set("keys_per_partition", 1000);
      auto result = ScenarioRunner::Run(spec);
      ASSERT_TRUE(result.ok())
          << workload << "/" << protocol << ": "
          << result.status().ToString();
      EXPECT_GT(result->stats.TotalCommits(), 0u)
          << workload << "/" << protocol;
    }
  }
}

// ---------------------------------------------------------------------------
// ycsb knobs
// ---------------------------------------------------------------------------

TEST(YcsbTest, ReadOnlyWorkloadNeverConflictsUnder2pl) {
  ScenarioSpec spec = SmallYcsb();
  spec.protocol = "2pl";
  spec.options.Set("read_ratio", 1.0);
  auto result = ScenarioRunner::Run(spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->stats.TotalCommits(), 0u);
  // Shared locks are compatible: an all-read mix cannot conflict-abort.
  EXPECT_EQ(result->stats.TotalConflictAborts(), 0u);
}

TEST(YcsbTest, DistributedRatioZeroStaysSinglePartition) {
  ScenarioSpec spec = SmallYcsb();
  spec.options.Set("distributed_ratio", 0.0);
  auto result = ScenarioRunner::Run(spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->stats.TotalCommits(), 0u);
  EXPECT_DOUBLE_EQ(result->stats.DistributedRatio(), 0.0);
}

TEST(YcsbTest, DistributedRatioOneSpansPartitions) {
  ScenarioSpec spec = SmallYcsb();
  spec.options.Set("distributed_ratio", 1.0);
  auto result = ScenarioRunner::Run(spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->stats.DistributedRatio(), 0.5);
}

TEST(YcsbTest, InvalidKnobsAreRejected) {
  ScenarioSpec spec = SmallYcsb();
  spec.options.Set("theta", 1.5);
  EXPECT_TRUE(ScenarioRunner::Run(spec).status().IsInvalidArgument());
  spec = SmallYcsb();
  spec.options.Set("read_ratio", -0.5);
  EXPECT_TRUE(ScenarioRunner::Run(spec).status().IsInvalidArgument());
  spec = SmallYcsb();
  spec.options.Set("ops_per_txn", 0);
  EXPECT_TRUE(ScenarioRunner::Run(spec).status().IsInvalidArgument());
  // More hot keys than keys: a Status, not a CHECK failure in the workload.
  spec = SmallYcsb();
  spec.options.Set("keys_per_partition", 1000);
  spec.options.Set("hot_keys_per_partition", 5000);
  EXPECT_TRUE(ScenarioRunner::Run(spec).status().IsInvalidArgument());
  // adaptive has no hot-key knob, so that rule cannot refuse a keyspace
  // smaller than ycsb's default hot set.
  spec = SmallYcsb();
  spec.workload = "adaptive";
  spec.options.Set("keys_per_partition", 2);
  spec.options.Set("ops_per_txn", 1);
  const Status st = ScenarioRunner::Wire(spec).status();
  EXPECT_TRUE(st.ok()) << st.ToString();
}

// Each option value below would otherwise kill the process inside the
// workload (a modulo or Uniform draw by zero, or a CHECK at parse or load
// time), silently run a meaningless mix, or wrap into another value; the
// factories refuse it with a Status naming the option before anything is
// loaded. A knob the workload does not have (`unknown`) is refused the same
// way rather than ignored. `also` sets a second, valid option.
TEST(WorkloadOptionsTest, InvalidOptionsFailWiringWithTheirName) {
  struct Case {
    const char* workload;
    const char* option;
    const char* value;
    bool unknown = false;
    const char* also = nullptr;
    const char* also_value = nullptr;
  };
  const Case cases[] = {
      {"tpcc", "num_warehouses", "0"},
      {"tpcc", "remote_new_order_prob", "-0.1"},
      {"tpcc", "remote_payment_prob", "2"},
      {"tpcc", "invalid_item_prob", "1.5"},
      {"flight", "num_flights", "0"},
      {"flight", "hot_flights", "0"},
      {"flight", "hot_flights", "1000"},  // == the default num_flights
      {"flight", "num_customers", "0"},
      {"flight", "num_states", "0"},
      {"flight", "hot_fraction", "1.5"},
      {"flight", "initial_seats", "100000"},
      {"instacart", "num_products", "100"},
      {"instacart", "num_customers", "5000", /*unknown=*/true},
      {"ycsb", "keys_per_partition", "0"},
      {"ycsb", "theta", "nan"},
      {"ycsb", "theta", "abc"},
      {"ycsb", "read_ratio", "nan"},
      {"ycsb", "ops_per_txn", "4294967298"},  // 2 once truncated to 32 bits
      {"tpcc", "pct_new_order", "-1"},
      {"tpcc", "num_warehouses", "4294967297"},  // 1 once truncated
      {"instacart", "tail_theta", "nan"},
      {"instacart", "hot_threshold", "nan"},
      // Times 1000 ns, the period wraps 64 bits to 384 ns.
      {"adaptive", "shift_every_us", "18446744073709552", false,
       "shift_stride", "5"},
  };
  for (const Case& c : cases) {
    ScenarioSpec spec;
    spec.workload = c.workload;
    spec.protocol = "2pl";
    spec.nodes = 2;
    spec.engines_per_node = 1;
    spec.options.Set(c.option, c.value);
    if (c.also != nullptr) spec.options.Set(c.also, c.also_value);
    const std::string what =
        std::string(c.workload) + " " + c.option + "=" + c.value;
    const Status st = ScenarioRunner::Wire(spec).status();
    EXPECT_TRUE(st.IsInvalidArgument()) << what;
    const std::string says =
        c.unknown ? "unknown option '" + std::string(c.option) + "'"
                  : std::string(c.option) + " must";
    EXPECT_NE(st.message().find(says), std::string::npos)
        << what << ": " << st.ToString();
  }
}

// ---------------------------------------------------------------------------
// Dead knobs
// ---------------------------------------------------------------------------

/// What a wired workload hands a run: its loaded records (count and an
/// order-independent digest of ids and fields), their placement (primary
/// partition and hotness), and the first 1,000 transactions drawn with a
/// fixed Rng (class, params, and each op's type, table and key when no
/// earlier read decides it). The draws happen at 10 ms of simulated time,
/// so a shifting hot set has rotated by then.
struct WorkloadPrint {
  size_t records = 0;
  uint64_t data = 0;
  uint64_t placement = 0;
  uint64_t txns = 0;
  friend bool operator==(const WorkloadPrint&, const WorkloadPrint&) = default;
};

uint64_t Mix(uint64_t h, uint64_t v) {
  h = (h ^ v) * 0x9e3779b97f4a7c15ull;
  return h ^ (h >> 31);
}

WorkloadPrint Fingerprint(const ScenarioSpec& spec) {
  WorkloadPrint print;
  auto env = ScenarioRunner::Wire(spec);
  EXPECT_TRUE(env.ok()) << spec.options.ToString() << ": "
                        << env.status().ToString();
  if (!env.ok()) return print;
  const partition::RecordPartitioner* part = env->bundle->partitioner();
  for (PartitionId p = 0; p < spec.partitions(); ++p) {
    env->cluster->primary(p)->ForEach(
        [&](const RecordId& rid, const storage::Record& rec) {
          uint64_t h = Mix(Mix(0, rid.table), rid.key);
          print.placement += Mix(Mix(h, p), part->IsHot(rid));
          for (size_t f = 0; f < rec.num_fields(); ++f) {
            h = Mix(h, static_cast<uint64_t>(rec.Get(f)));
          }
          print.data += h;
          ++print.records;
        });
  }
  env->cluster->sim()->RunUntil(10 * kMillisecond);
  Rng rng(5);
  for (uint32_t i = 0; i < 1000; ++i) {
    auto t = env->bundle->source()->Next(i % spec.partitions(), &rng);
    print.txns = Mix(print.txns, t->txn_class);
    for (int64_t param : t->ctx.params) {
      print.txns = Mix(print.txns, static_cast<uint64_t>(param));
    }
    for (const txn::Operation& op : t->ops) {
      print.txns = Mix(Mix(print.txns, static_cast<uint64_t>(op.type)),
                       op.table);
      if (op.pk_deps.empty()) print.txns = Mix(print.txns, op.key_fn(t->ctx));
    }
  }
  return print;
}

/// A workload's knob names, as its unknown-option refusal lists them.
std::set<std::string> KnobNames(const std::string& workload) {
  ScenarioSpec spec;
  spec.workload = workload;
  spec.options.Set("not-a-knob", 1);
  const std::string message = ScenarioRunner::Wire(spec).status().message();
  const std::string from = "(known: ";
  const size_t begin = message.find(from) + from.size();
  std::set<std::string> names;
  for (size_t at = begin; at < message.size();) {
    const size_t end = message.find_first_of(",)", at);
    names.insert(message.substr(at, end - at));
    at = end + 2;
  }
  return names;
}

// Every knob of every workload must reach the workload: a valid
// non-default value changes the records, their placement, or the drawn
// transactions. The TPC-C mix moves in pairs (it must sum to 100) and the
// shift pair is set together. Adding a knob without a value here fails.
TEST(WorkloadOptionsTest, EveryKnobChangesTheWorkload) {
  using Settings = std::vector<std::pair<const char*, const char*>>;
  const std::vector<Settings> tpcc_values = {
      {{"num_warehouses", "4"}},
      {{"remote_new_order_prob", "0.9"}},
      {{"remote_payment_prob", "0.9"}},
      {{"pct_new_order", "35"}, {"pct_payment", "53"}},
      {{"pct_order_status", "8"}, {"pct_delivery", "0"}},
      {{"pct_stock_level", "8"}, {"pct_new_order", "41"}},
      {{"invalid_item_prob", "0.5"}},
      {{"stock_level_orders", "8"}},
  };
  const std::vector<Settings> ycsb_values = {
      {{"keys_per_partition", "2000"}}, {{"theta", "0.5"}},
      {{"read_ratio", "0.9"}},          {{"distributed_ratio", "0.5"}},
      {{"ops_per_txn", "4"}},           {{"initial_value", "-3"}},
  };
  struct Family {
    Settings base;  // keeps the load small
    std::vector<Settings> values;
  };
  std::map<std::string, Family> families = {
      {"tpcc", {{}, tpcc_values}},
      {"adaptive-tpcc", {{}, tpcc_values}},
      {"instacart",
       {{{"num_products", "2000"}, {"trace_txns", "500"}},
        {{{"num_products", "3000"}},
         {{"tail_theta", "0.9"}},
         {{"layout", "hash"}},
         {{"layout", "schism"}},
         {{"trace_txns", "1000"}},
         {{"layout_seed", "8"}},
         {{"hot_threshold", "0.05"}}}}},
      {"flight",
       {{{"num_customers", "1000"}},
        {{{"num_flights", "2000"}},
         {{"num_customers", "2000"}},
         {{"num_states", "10"}},
         {{"hot_flights", "20"}},
         {{"hot_fraction", "0.5"}},
         {{"initial_seats", "100"}},
         {{"initial_balance", "5"}}}}},
      {"ycsb", {{{"keys_per_partition", "1000"}}, ycsb_values}},
      {"adaptive", {{{"keys_per_partition", "1000"}}, ycsb_values}},
  };
  families["ycsb"].values.push_back({{"hot_keys_per_partition", "16"}});
  families["adaptive"].values.push_back(
      {{"shift_every_us", "1000"}, {"shift_stride", "150"}});

  for (const std::string& workload : Workloads().Names()) {
    ASSERT_TRUE(families.contains(workload)) << workload;
    const Family& family = families[workload];
    std::set<std::string> covered;
    for (const Settings& settings : family.values) {
      for (const auto& [key, value] : settings) covered.insert(key);
    }
    EXPECT_EQ(covered, KnobNames(workload)) << workload;

    ScenarioSpec base;
    base.workload = workload;
    base.protocol = "2pl";
    base.nodes = 2;
    base.engines_per_node = 1;
    for (const auto& [key, value] : family.base) base.options.Set(key, value);
    const WorkloadPrint reference = Fingerprint(base);
    for (const Settings& settings : family.values) {
      ScenarioSpec spec = base;
      for (const auto& [key, value] : settings) spec.options.Set(key, value);
      EXPECT_FALSE(Fingerprint(spec) == reference)
          << workload << " " << spec.options.ToString()
          << " changes nothing";
    }
  }
}

TEST(YcsbTest, PartitionerPlacesAndFlagsHotKeys) {
  workload::ycsb::YcsbPartitioner part(/*num_partitions=*/4,
                                       /*keys_per_partition=*/100,
                                       /*hot_keys_per_partition=*/2);
  EXPECT_EQ(part.PartitionOf({workload::ycsb::kMain, 0}), 0u);
  EXPECT_EQ(part.PartitionOf({workload::ycsb::kMain, 101}), 1u);
  EXPECT_EQ(part.PartitionOf({workload::ycsb::kMain, 399}), 3u);
  EXPECT_TRUE(part.IsHot({workload::ycsb::kMain, 201}));
  EXPECT_FALSE(part.IsHot({workload::ycsb::kMain, 202}));
  EXPECT_EQ(part.LookupEntries(), 0u);
}

// ---------------------------------------------------------------------------
// SweepExecutor
// ---------------------------------------------------------------------------

TEST(SweepExecutorTest, ResultsFollowSpecOrderRegardlessOfJobs) {
  std::vector<ScenarioSpec> specs;
  for (uint64_t seed : {31, 7, 19, 3}) {
    ScenarioSpec spec = SmallYcsb();
    spec.seed = seed;
    spec.measure = 2 * kMillisecond;
    specs.push_back(std::move(spec));
  }
  for (uint32_t jobs : {1u, 4u}) {
    auto results = SweepExecutor(jobs).Run(specs);
    ASSERT_EQ(results.size(), specs.size());
    for (size_t i = 0; i < results.size(); ++i) {
      ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
      EXPECT_EQ(results[i]->spec.seed, specs[i].seed) << "jobs=" << jobs;
    }
  }
}

TEST(SweepExecutorTest, FailedSpecDoesNotPoisonTheSweep) {
  std::vector<ScenarioSpec> specs = {SmallYcsb(), SmallYcsb()};
  specs[0].workload = "nope";
  specs[0].measure = 2 * kMillisecond;
  specs[1].measure = 2 * kMillisecond;
  auto results = SweepExecutor(2).Run(specs);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].status().IsInvalidArgument());
  ASSERT_TRUE(results[1].ok());
  EXPECT_GT(results[1]->stats.TotalCommits(), 0u);
}

TEST(SweepExecutorTest, ProgressFiresOncePerSpec) {
  std::vector<ScenarioSpec> specs = {SmallYcsb(), SmallYcsb(), SmallYcsb()};
  for (auto& s : specs) s.measure = 2 * kMillisecond;
  std::vector<int> seen(specs.size(), 0);
  SweepExecutor(2).Run(specs,
                       [&](size_t i, const StatusOr<ScenarioResult>& r) {
                         EXPECT_TRUE(r.ok());
                         ++seen[i];
                       });
  for (int count : seen) EXPECT_EQ(count, 1);
}

TEST(ParallelMapTest, MapsEveryIndexInOrder) {
  auto out = ParallelMap(3, 100, [](size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 100u);
  for (size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ParallelMapTest, ZeroJobsResolvesToHardware) {
  EXPECT_GE(ResolveJobs(0), 1u);
  EXPECT_EQ(ResolveJobs(5), 5u);
}

// ---------------------------------------------------------------------------
// Phase plans and the adaptive loop
// ---------------------------------------------------------------------------

std::vector<Phase> AdaptivePlan() {
  return {
      Phase::Warmup(kMillisecond),
      Phase::Sample(2 * kMillisecond, /*rate=*/1.0),
      Phase::Replan(),
      Phase::Migrate(),
      Phase::Warmup(kMillisecond),
      Phase::Measure(4 * kMillisecond),
  };
}

TEST(PhasePlanTest, LegacySpecExpandsToWarmupMeasure) {
  ScenarioSpec spec = SmallYcsb();
  const auto plan = spec.EffectivePhases();
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan[0], Phase::Warmup(spec.warmup));
  EXPECT_EQ(plan[1], Phase::Measure(spec.measure));
}

TEST(PhasePlanTest, ValidateRejectsMalformedPlans) {
  ScenarioSpec spec = SmallYcsb();
  spec.phases = {Phase::Warmup(kMillisecond)};  // nothing measured
  EXPECT_TRUE(ScenarioRunner::Validate(spec).IsInvalidArgument());

  spec.phases = {Phase::Replan(), Phase::Migrate(),
                 Phase::Measure(kMillisecond)};  // replan without a sample
  EXPECT_TRUE(ScenarioRunner::Validate(spec).IsInvalidArgument());

  spec.phases = {Phase::Sample(kMillisecond, 1.0), Phase::Replan(),
                 Phase::Measure(kMillisecond)};  // replan never migrated
  EXPECT_TRUE(ScenarioRunner::Validate(spec).IsInvalidArgument());

  spec.phases = {Phase::Sample(kMillisecond, 1.0), Phase::Migrate(),
                 Phase::Measure(kMillisecond)};  // migrate without replan
  EXPECT_TRUE(ScenarioRunner::Validate(spec).IsInvalidArgument());

  spec.phases = {Phase::Sample(kMillisecond, 2.0), Phase::Replan(),
                 Phase::Migrate(),
                 Phase::Measure(kMillisecond)};  // bad sample rate
  EXPECT_TRUE(ScenarioRunner::Validate(spec).IsInvalidArgument());

  spec.phases = {Phase::Measure(0)};  // zero-length timed phase
  EXPECT_TRUE(ScenarioRunner::Validate(spec).IsInvalidArgument());

  // Non-finite rates and thresholds: NaN passes every ordered comparison,
  // and a NaN sample rate would sample every commit.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (double bad : {kNaN, kInf}) {
    spec.phases = {Phase::Sample(kMillisecond, bad), Phase::Replan(),
                   Phase::Migrate(), Phase::Measure(kMillisecond)};
    EXPECT_TRUE(ScenarioRunner::Validate(spec).IsInvalidArgument()) << bad;
    spec.phases = {Phase::Sample(kMillisecond, 1.0), Phase::Replan(bad),
                   Phase::Migrate(), Phase::Measure(kMillisecond)};
    EXPECT_TRUE(ScenarioRunner::Validate(spec).IsInvalidArgument()) << bad;
  }

  spec.phases = AdaptivePlan();
  spec.workload = "adaptive";
  EXPECT_TRUE(ScenarioRunner::Validate(spec).ok());
}

TEST(PhasePlanTest, ReplanNeedsAnAdaptiveWorkload) {
  ScenarioSpec spec = SmallYcsb();  // plain ycsb: frozen layout
  spec.phases = AdaptivePlan();
  auto result = ScenarioRunner::Run(spec);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsFailedPrecondition());
}

TEST(PhasePlanTest, MultiPhasePlanMatchesLegacyRun) {
  // A plan of {warmup, measure} spelled explicitly must reproduce the
  // implicit legacy shape bit for bit — the refactor is pure.
  ScenarioSpec legacy = SmallYcsb();
  ScenarioSpec phased = SmallYcsb();
  phased.phases = {Phase::Warmup(legacy.warmup),
                   Phase::Measure(legacy.measure)};
  auto a = ScenarioRunner::Run(legacy);
  auto b = ScenarioRunner::Run(phased);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->stats.TotalCommits(), b->stats.TotalCommits());
  EXPECT_EQ(a->stats.TotalConflictAborts(), b->stats.TotalConflictAborts());
  EXPECT_EQ(a->stats.window, b->stats.window);
}

TEST(PhasePlanTest, AdaptiveRelayoutBeatsStaticHashLayout) {
  // The acceptance property of the Section 4.1 loop: starting from a hash
  // layout on a contended ycsb workload, sample -> replan -> migrate must
  // end the measure phase with strictly more committed throughput than
  // the same spec without the adaptive phases.
  ScenarioSpec adaptive;
  adaptive.workload = "adaptive";
  adaptive.protocol = "chiller";
  adaptive.nodes = 4;
  adaptive.engines_per_node = 1;
  adaptive.concurrency = 4;
  adaptive.seed = 5;
  adaptive.options.Set("keys_per_partition", 5000);
  adaptive.options.Set("theta", 0.9);
  adaptive.phases = AdaptivePlan();

  ScenarioSpec still = adaptive;
  still.phases = {Phase::Warmup(5 * kMillisecond),
                  Phase::Measure(4 * kMillisecond)};

  auto moved = ScenarioRunner::Run(adaptive);
  auto frozen = ScenarioRunner::Run(still);
  ASSERT_TRUE(moved.ok()) << moved.status().ToString();
  ASSERT_TRUE(frozen.ok()) << frozen.status().ToString();
  EXPECT_GT(moved->adaptive.sampled_txns, 0u);
  EXPECT_GT(moved->adaptive.migration.moved_records, 0u);
  EXPECT_GT(moved->stats.TotalCommits(), frozen->stats.TotalCommits());
}

TEST(PhasePlanTest, TwoRelayoutsAccumulateIntoOneReport) {
  // A plan that relayouts twice reports both, the way the continuous
  // controller does: moves are summed and the window runs from the first
  // relayout's start to the last one's end.
  ScenarioSpec spec;
  spec.workload = "adaptive";
  spec.protocol = "chiller";
  spec.nodes = 3;
  spec.engines_per_node = 1;
  spec.concurrency = 2;
  spec.seed = 9;
  spec.options.Set("keys_per_partition", 2000);
  spec.options.Set("theta", 0.95);
  const std::vector<Phase> first = {
      Phase::Warmup(kMillisecond),
      Phase::Sample(2 * kMillisecond, /*rate=*/1.0),
      Phase::Replan(),
      Phase::Migrate(),
  };
  ScenarioSpec once = spec;
  once.phases = first;
  once.phases.push_back(Phase::Measure(kMillisecond));
  ScenarioSpec twice = spec;
  twice.phases = first;
  for (const Phase& ph :
       {Phase::Sample(2 * kMillisecond, /*rate=*/1.0), Phase::Replan(),
        Phase::LiveMigrate(), Phase::Measure(kMillisecond)}) {
    twice.phases.push_back(ph);
  }

  auto a = ScenarioRunner::Run(once);
  auto b = ScenarioRunner::Run(twice);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ASSERT_GT(a->adaptive.migration.moved_records, 0u);
  EXPECT_EQ(b->adaptive.migration_start, a->adaptive.migration_start);
  EXPECT_GT(b->adaptive.migration_end, a->adaptive.migration_end);
  EXPECT_GE(b->adaptive.migration.moved_records,
            a->adaptive.migration.moved_records);
  EXPECT_GE(b->adaptive.migration.moved_bytes,
            a->adaptive.migration.moved_bytes);
  EXPECT_GE(b->adaptive.migration.sim_time, a->adaptive.migration.sim_time);
  EXPECT_GE(b->adaptive.buckets_moved, a->adaptive.buckets_moved);
}

// ---------------------------------------------------------------------------
// Load models through the runner
// ---------------------------------------------------------------------------

TEST(LoadModelScenarioTest, OpenLoopBelowCapacityShedsNothing) {
  ScenarioSpec spec = SmallYcsb();
  spec.load_model = "open";
  spec.offered_tps = 30000;  // far below what 3 engines sustain
  spec.queue_cap = 32;
  auto result = ScenarioRunner::Run(spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->stats.admitted, 0u);
  EXPECT_EQ(result->stats.shed, 0u);
  EXPECT_DOUBLE_EQ(result->stats.ShedRate(), 0.0);
  EXPECT_GT(result->stats.TotalCommits(), 0u);
}

TEST(LoadModelScenarioTest, OpenLoopOverloadShedsAndBoundsTheQueue) {
  ScenarioSpec spec = SmallYcsb();
  spec.load_model = "open";
  spec.offered_tps = 10000000;  // hopeless overload
  spec.queue_cap = 4;
  auto result = ScenarioRunner::Run(spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const cc::RunStats& stats = result->stats;
  EXPECT_GT(stats.shed, 0u);
  EXPECT_GT(stats.ShedRate(), 0.5);
  // Admissions kept flowing even while the queue was shedding.
  EXPECT_GT(stats.admitted, 0u);
  // Delivered throughput is capacity-bound, far under the offered rate.
  EXPECT_LT(stats.Throughput(), spec.offered_tps * 0.5);
  EXPECT_GT(stats.TotalCommits(), 0u);
}

TEST(LoadModelScenarioTest, OpenLoopSurvivesQuiesceAndMigrate) {
  // The satellite property: an open-loop driver can be quiesced mid-run
  // for a layout migration and resumed, with arrival clocks re-armed and
  // already-queued requests surviving the pause.
  ScenarioSpec spec;
  spec.workload = "adaptive";
  spec.protocol = "chiller";
  spec.nodes = 3;
  spec.engines_per_node = 1;
  spec.concurrency = 2;
  spec.seed = 9;
  spec.options.Set("keys_per_partition", 2000);
  spec.options.Set("theta", 0.95);
  spec.load_model = "open";
  spec.offered_tps = 120000;
  spec.queue_cap = 16;
  spec.phases = {
      Phase::Warmup(kMillisecond),
      Phase::Sample(2 * kMillisecond, /*rate=*/1.0),
      Phase::Replan(),
      Phase::Migrate(),
      Phase::Warmup(kMillisecond),
      Phase::Measure(4 * kMillisecond),
  };
  auto result = ScenarioRunner::Run(spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // The loop engaged (records moved through a quiesce) and the open loop
  // kept serving afterwards: the measure phase saw commits and arrivals.
  EXPECT_GT(result->adaptive.sampled_txns, 0u);
  EXPECT_GT(result->adaptive.migration.moved_records, 0u);
  EXPECT_GT(result->stats.TotalCommits(), 0u);
  EXPECT_GT(result->stats.admitted, 0u);
}

// ---------------------------------------------------------------------------
// Shards x jobs coordination.
// ---------------------------------------------------------------------------

TEST(SweepExecutorTest, EffectiveJobsDividesByTheWidestShardCount) {
  SweepExecutor executor(8);
  std::vector<ScenarioSpec> specs(3, SmallYcsb());
  EXPECT_EQ(executor.EffectiveJobs(specs), 8u);
  specs[1].shards = 4;
  specs[1].nodes = 4;
  EXPECT_EQ(executor.EffectiveJobs(specs), 2u);
  specs[2].shards = 16;  // wider than jobs: never drops below one worker
  specs[2].nodes = 16;
  EXPECT_EQ(executor.EffectiveJobs(specs), 1u);
}

TEST(SweepExecutorTest, EffectiveJobsCountsOnlyShardsThatOwnANode) {
  SweepExecutor executor(8);
  std::vector<ScenarioSpec> specs(2, SmallYcsb());  // 3 nodes
  specs[1].shards = 16;  // the simulator runs 3 shards, one per node
  EXPECT_EQ(executor.EffectiveJobs(specs), 2u);
}

}  // namespace
}  // namespace chiller::runner
