// The two-clock benchmark: runs one workload of the Chiller reproduction
// and prints its metrics as one JSON line on stdout.
//
//   chiller_benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                     [--out DIR] [--verify]
//
// A run executes kSubRuns independent sub-runs of the workload, sub-run i
// with ScenarioSpec::seed = N * 1000 + i. Each sub-run wires its cluster
// afresh, warms up, measures one fixed simulated window and drains. Every
// simulated metric — throughput, abort rates, latencies, layer counts — is
// the median over the sub-runs, so it is a pure function of --seed. The
// sub-runs then repeat in turn until --seconds of host time have passed
// (at least once): a repeat must reproduce its sub-run's simulated results
// bit for bit, and adds a host-time sample. Host metrics — set-up and
// measured-window wall-clock — are medians over all runs.
//
// --trace 1 adds kTracedRuns traced runs of sub-run 0, whose Chrome trace
// gives the per-layer simulated-time breakdown, and (ycsb-open) the knee
// search.
// --verify adds the self-tests against runner::ScenarioRunner::Run.
//
// The benchmark calls only public layer APIs and times those calls from
// outside; it never changes the program under test.
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <queue>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cc/driver.h"
#include "chiller/two_region.h"
#include "common/histogram.h"
#include "common/json.h"
#include "migrate/adaptive_controller.h"
#include "runner/runner.h"
#include "trace_breakdown.h"

namespace chiller::benchmark {
namespace {

using Clock = std::chrono::steady_clock;

/// Independent sub-runs per run; their medians are the simulated metrics.
constexpr int kSubRuns = 10;
constexpr int kMaxRuns = 60;
/// Every 16th logical transaction per engine is traced: enough spans for
/// stable per-layer percentiles, few enough to keep the trace small.
constexpr uint32_t kTraceSampleEvery = 16;
/// Repeats of the traced run: its spans come from the first, and the
/// tracing overhead from the median host time of all, as one host sample
/// swings by ±30% on a shared host.
constexpr int kTracedRuns = 3;

uint64_t SubRunSeed(uint64_t seed, int sub_run) {
  return seed * 1000 + static_cast<uint64_t>(sub_run);
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// VmHWM: the process's peak resident set so far, in MB (0 if unreadable).
double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double Median(std::vector<double> v) { return SamplePercentile(std::move(v), 50.0); }

/// CalibrationSeconds() on the 4-core host the benchmark was sized on.
constexpr double kCalibrationReferenceS = 0.058;

/// Keeps the calibration kernel's result observable, so it is not optimised
/// away.
volatile uint64_t calibration_sink = 0;

/// Times a fixed kernel that shares no code with the program under test: a
/// binary-heap event queue driving updates of a ~10 MB hash map, the access
/// mix of a discrete-event simulator. A shared host's speed drifts by more
/// than 50% within minutes; scaling each host-time sample by
/// kCalibrationReferenceS / (the kernel's mean time around it, see
/// CalibrationScale) cancels most of that drift, so host metrics read as
/// seconds on the reference host.
double CalibrationSeconds() {
  const Clock::time_point start = Clock::now();
  using Event = std::pair<uint64_t, uint32_t>;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue;
  std::unordered_map<uint64_t, uint64_t> table;
  uint64_t x = 88172645463325252ULL;  // xorshift64 state
  for (uint32_t i = 0; i < 4096; ++i) queue.push({i, i});
  for (int step = 0; step < 300000; ++step) {
    const Event ev = queue.top();
    queue.pop();
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    table[(x >> 11) & 0x3FFFF] += ev.first;
    queue.push({ev.first + (x & 1023), ev.second});
  }
  calibration_sink = table.size() + queue.top().first;
  return SecondsSince(start);
}

/// The factor that scales host sample n to the reference host, given the
/// kernel's times `kernel_s`, where kernel_s[n] ran just before sample n and
/// kernel_s[n + 1] just after it. It averages the kernel over two gaps on
/// either side of the sample: one ~60 ms kernel time is noisier than the
/// sample it scales, and on tpcc-2pl-sharded, whose shard threads feel the
/// host's load most, four of them cut the seed-to-seed spread of host_run_s
/// from 11% to 6.5% (IQR / median over 20 seeds; see README.md).
double CalibrationScale(const std::vector<double>& kernel_s, size_t n) {
  const size_t first = n == 0 ? 0 : n - 1;
  const size_t last = std::min(n + 2, kernel_s.size() - 1);
  double sum = 0.0;
  for (size_t i = first; i <= last; ++i) sum += kernel_s[i];
  return kCalibrationReferenceS * static_cast<double>(last - first + 1) / sum;
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double Ratio(uint64_t num, uint64_t den) {
  return Ratio(static_cast<double>(num), static_cast<double>(den));
}

/// Percentile of a histogram, interpolated linearly through the cumulative
/// share at the upper bounds of its non-empty buckets. Histogram::Percentile
/// alone returns a bucket bound, which reads the same for every seed while
/// the percentile stays inside one ~3% wide bucket.
double InterpolatedPercentile(const Histogram& h, double p) {
  if (h.count() == 0) return 0.0;
  // Percentile(q) is a non-decreasing step function of q; the cumulative
  // share at a bucket bound v is where it first exceeds v.
  auto share_at_most = [&](uint64_t v) {
    if (h.Percentile(100.0) <= v) return 100.0;
    double lo = 0.0;
    double hi = 100.0;
    for (int i = 0; i < 64; ++i) {
      const double mid = (lo + hi) / 2.0;
      (h.Percentile(mid) > v ? hi : lo) = mid;
    }
    return hi;
  };
  const uint64_t upper = h.Percentile(p);
  const double q_upper = share_at_most(upper);
  const double q_lower = upper == 0 ? 0.0 : share_at_most(upper - 1);
  const double lower = q_lower < 1e-9
                           ? static_cast<double>(h.min())
                           : static_cast<double>(h.Percentile(q_lower - 1e-9));
  if (q_upper <= q_lower) return static_cast<double>(upper);
  const double frac = std::clamp((p - q_lower) / (q_upper - q_lower), 0.0, 1.0);
  return lower + (static_cast<double>(upper) - lower) * frac;
}

Histogram CommitLatency(const cc::RunStats& stats) {
  Histogram h;
  for (const cc::ClassStats& c : stats.classes) h.Merge(c.latency);
  return h;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

runner::ScenarioSpec TpccSpec(const std::string& protocol, uint32_t shards) {
  runner::ScenarioSpec spec;
  spec.workload = "tpcc";
  spec.protocol = protocol;
  spec.nodes = 8;
  spec.engines_per_node = 2;
  spec.concurrency = 4;
  spec.shards = shards;
  spec.options.Set("num_warehouses", 16);
  spec.warmup = 3 * kMillisecond;
  spec.measure = 40 * kMillisecond;
  return spec;
}

/// The spec every sub-run of workload `name` runs, seed aside. The knobs
/// README.md names are set even where they equal a default, so a changed
/// default cannot silently change the benchmark.
StatusOr<runner::ScenarioSpec> MakeWorkload(const std::string& name) {
  runner::ScenarioSpec s;
  if (name == "tpcc-chiller") {
    s = TpccSpec("chiller", 1);
  } else if (name == "tpcc-2pl-sharded") {
    s = TpccSpec("2pl", 2);
  } else if (name == "ycsb-open") {
    s.workload = "ycsb";
    s.protocol = "chiller";
    s.nodes = 8;
    s.engines_per_node = 1;
    s.concurrency = 4;
    s.load_model = "open";
    s.offered_tps = 1.1e6;
    s.arrival = "poisson";
    // Deep enough that no request is shed at the nominal rate; the knee
    // probes use kKneeQueueCap.
    s.queue_cap = 64;
    s.scheduler = "hash-affinity";
    s.options.Set("theta", 0.99);
    s.options.Set("ops_per_txn", 2);
    s.options.Set("read_ratio", 0.0);
    s.options.Set("hot_keys_per_partition", 2);
    s.options.Set("distributed_ratio", 0.1);
    s.warmup = 2 * kMillisecond;
    s.measure = 200 * kMillisecond;
  } else if (name == "relayout-shift") {
    // The hot set rotates every 5 ms, so re-arms and relayouts recur
    // throughout the window instead of clustering at a few seed-dependent
    // instants — that keeps the tail latency steady across seeds.
    s.workload = "adaptive";
    s.protocol = "chiller";
    s.nodes = 4;
    s.engines_per_node = 2;
    s.concurrency = 4;
    s.options.Set("theta", 0.9);
    s.options.Set("read_ratio", 0.5);
    s.options.Set("ops_per_txn", 4);
    s.options.Set("keys_per_partition", 10000);
    s.options.Set("shift_every_us", 5000);
    s.options.Set("shift_stride", 2500);
    s.continuous = true;
    s.controller_period = kMillisecond;
    s.controller_drift_threshold = 0.1;
    s.controller_hysteresis = 2;
    s.rearm_threshold = 0.2;
    s.migrate_streams = 4;
    s.warmup = 2 * kMillisecond;
    s.measure = 60 * kMillisecond;
  } else {
    return Status::InvalidArgument(
        "unknown workload '" + name +
        "' (known: tpcc-chiller, tpcc-2pl-sharded, ycsb-open, relayout-shift)");
  }
  s.label = name;
  return s;
}

// ---------------------------------------------------------------------------
// One run
// ---------------------------------------------------------------------------

/// Cumulative layer counters by name, sampled at the measure window's
/// edges. The driver.* and sched.* names are MetricsRegistry counters.
using Counters = std::map<std::string, uint64_t>;

Counters SampleCounters(const runner::ScenarioEnv& env) {
  cc::Cluster* cluster = env.cluster.get();
  Counters c = {
      {"events", cluster->sim()->events_processed()},
      {"messages", cluster->network()->messages_sent()},
      {"bytes", cluster->network()->bytes_sent()},
      {"rpcs", cluster->rpc()->rpcs_sent()},
      {"rdma_ops", cluster->rdma()->ops_issued()},
      {"replication_batches", env.repl->batches_sent()},
  };
  uint64_t busy = 0;
  for (EngineId e = 0; e < cluster->num_engines(); ++e) {
    busy += cluster->engine(e)->cpu()->total_busy();
  }
  c["engine_busy_ns"] = busy;
  for (const char* name :
       {"driver.commits", "driver.aborts.contention", "driver.aborts.fallback",
        "driver.aborts.migration", "driver.aborts.user",
        "sched.routed_remote"}) {
    c[name] = cluster->metrics()->GetCounter(name)->Sum();
  }
  // Zero for the protocols without a two-region path.
  const auto* chiller =
      dynamic_cast<const core::ChillerProtocol*>(env.protocol.get());
  const core::TwoRegionCounters none;
  const core::TwoRegionCounters& tr =
      chiller != nullptr ? chiller->counters() : none;
  c["two_region"] = tr.two_region_txns.load();
  c["fallback"] = tr.fallback_txns.load();
  c["inner_aborts"] = tr.inner_aborts.load();
  c["outer_aborts"] = tr.outer_aborts.load();
  c["inner_local"] = tr.inner_local.load();
  return c;
}

Counters Delta(const Counters& before, const Counters& after) {
  Counters d;
  for (const auto& [name, value] : after) d[name] = value - before.at(name);
  return d;
}

/// Order-independent digest of one store's committed state.
uint64_t StoreDigest(const storage::PartitionStore& store) {
  uint64_t digest = 0;
  store.ForEach([&](const RecordId& rid, const storage::Record& rec) {
    uint64_t h = 0x9e3779b97f4a7c15ULL * (rid.table + 1) ^ rid.key;
    for (int64_t f : rec.fields()) {
      h ^= static_cast<uint64_t>(f) + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    }
    digest += h * 0xff51afd7ed558ccdULL;
  });
  return digest + store.num_records();
}

struct RunResult {
  double setup_s = 0.0;
  double host_run_s = 0.0;
  double cpu_s = 0.0;
  /// Host time inside AdaptiveController::RunFor but outside its advance
  /// callback: the controller's own sampling, replanning and scoring.
  double controller_host_s = 0.0;
  cc::RunStats stats;
  Counters delta;
  migrate::AdaptiveControllerReport controller;
  SimTime window_start = 0;
  SimTime window_end = 0;
  /// Replica stores whose committed state differs from their primary's
  /// after the drain.
  uint64_t replica_mismatches = 0;
  std::string trace_json;
  uint64_t trace_events = 0;
  std::vector<std::string> failures;
};

/// Wires `spec`, warms up, measures one window, drains. The continuous
/// branch drives the AdaptiveController exactly as ScenarioRunner::Run's
/// continuous branch does, so the measured Advance time can be split from
/// the controller's own. `check_state` adds the checks that scan every
/// store after the drain.
StatusOr<RunResult> RunOnce(const runner::ScenarioSpec& spec, bool check_state) {
  RunResult r;
  const Clock::time_point wire_start = Clock::now();
  auto wired = runner::ScenarioRunner::Wire(spec);
  if (!wired.ok()) return wired.status();
  r.setup_s = SecondsSince(wire_start);
  runner::ScenarioEnv& env = wired.value();
  cc::Cluster* cluster = env.cluster.get();
  cc::Driver* driver = env.driver.get();
  const size_t loaded_records = cluster->TotalPrimaryRecords();

  driver->Start();
  driver->Advance(spec.warmup);
  driver->ResetStats();
  const Counters before = SampleCounters(env);
  r.window_start = cluster->sim()->now();
  const double cpu_start = ProcessCpuSeconds();
  const Clock::time_point run_start = Clock::now();
  driver->set_measuring(true);

  SimTime window = spec.measure;
  std::unique_ptr<migrate::AdaptiveController> controller;
  if (spec.continuous) {
    migrate::AdaptiveControllerOptions copts;
    copts.period = spec.controller_period;
    copts.sample_rate = spec.controller_sample_rate;
    copts.drift_threshold = spec.controller_drift_threshold;
    copts.hysteresis_epochs = spec.controller_hysteresis;
    copts.lock_window_txns =
        static_cast<double>(spec.concurrency) * spec.partitions();
    copts.relayout_buckets = spec.relayout_buckets;
    copts.migrator.batch_records = spec.migrate_batch_records;
    copts.migrator.streams = spec.migrate_streams;
    copts.governor = spec.governor;
    copts.governor_opts.min_streams = spec.governor_min_streams;
    copts.governor_opts.max_streams = spec.governor_max_streams;
    copts.governor_opts.p99_budget = spec.governor_p99_budget;
    copts.governor_opts.max_abort_share = spec.governor_max_abort_share;
    copts.rearm_threshold = spec.rearm_threshold;
    copts.shadow = spec.shadow;
    copts.seed = spec.seed;
    controller = std::make_unique<migrate::AdaptiveController>(
        driver, cluster, env.repl.get(), env.bundle->adaptive_partitioner(),
        copts);
    double advancing_s = 0.0;
    auto advanced = controller->RunFor(spec.measure, [&](SimTime d) {
      const Clock::time_point t0 = Clock::now();
      driver->Advance(d);
      advancing_s += SecondsSince(t0);
    });
    if (!advanced.ok()) return advanced.status();
    window = advanced.value();
    r.host_run_s = SecondsSince(run_start);
    r.controller_host_s = r.host_run_s - advancing_s;
    r.controller = controller->report();
  } else {
    driver->Advance(spec.measure);
    r.host_run_s = SecondsSince(run_start);
  }
  r.cpu_s = ProcessCpuSeconds() - cpu_start;
  driver->set_measuring(false);
  driver->set_measured_window(window);
  r.window_end = cluster->sim()->now();
  r.delta = Delta(before, SampleCounters(env));
  r.stats = driver->stats();

  if (r.delta.at("driver.commits") != r.stats.TotalCommits()) {
    r.failures.push_back("driver.commits delta " +
                         std::to_string(r.delta.at("driver.commits")) +
                         " != RunStats::TotalCommits " +
                         std::to_string(r.stats.TotalCommits()));
  }
  driver->Quiesce();
  if (spec.continuous && cluster->TotalPrimaryRecords() != loaded_records) {
    r.failures.push_back("primary records " + std::to_string(loaded_records) +
                         " before relayout, " +
                         std::to_string(cluster->TotalPrimaryRecords()) +
                         " after drain");
  }
  if (check_state) {
    for (PartitionId p = 0; p < spec.partitions(); ++p) {
      if (cluster->primary(p)->locks_held() != 0) {
        r.failures.push_back("partition " + std::to_string(p) +
                             " holds locks after drain");
      }
      const uint64_t primary = StoreDigest(*cluster->primary(p));
      for (uint32_t i = 1; i <= cluster->topology().num_replicas(); ++i) {
        if (StoreDigest(*cluster->replica(p, i)) != primary) {
          ++r.replica_mismatches;
        }
      }
    }
  }
  if (spec.trace_sample_every > 0) {
    r.trace_json = cluster->trace()->DumpJson();
    r.trace_events = cluster->trace()->events_recorded();
  }
  return r;
}

/// Everything a run reports in simulated time. Equal vectors mean
/// bit-identical simulated results.
std::vector<double> StatsFingerprint(const cc::RunStats& s) {
  std::vector<double> f = {static_cast<double>(s.window),
                           static_cast<double>(s.admitted),
                           static_cast<double>(s.shed),
                           static_cast<double>(s.queue_delay.count()),
                           s.queue_delay.Mean(),
                           static_cast<double>(s.queue_delay.max())};
  for (const cc::ClassStats& c : s.classes) {
    for (double v : {static_cast<double>(c.commits),
                     static_cast<double>(c.conflict_aborts),
                     static_cast<double>(c.user_aborts),
                     static_cast<double>(c.migration_aborts),
                     static_cast<double>(c.distributed_commits),
                     static_cast<double>(c.latency.count()), c.latency.Mean(),
                     static_cast<double>(c.latency.Percentile(50)),
                     static_cast<double>(c.latency.Percentile(99)),
                     static_cast<double>(c.latency.max())}) {
      f.push_back(v);
    }
  }
  return f;
}

/// Stats, controller report and every layer counter.
std::vector<double> RunFingerprint(const RunResult& r) {
  std::vector<double> f = StatsFingerprint(r.stats);
  const migrate::AdaptiveControllerReport& c = r.controller;
  for (double v :
       {static_cast<double>(c.epochs), static_cast<double>(c.migrations),
        static_cast<double>(c.sampled_txns),
        static_cast<double>(c.moved_records),
        static_cast<double>(c.moved_bytes),
        static_cast<double>(c.migration_sim_time),
        static_cast<double>(c.buckets_moved),
        static_cast<double>(c.first_migration_start),
        static_cast<double>(c.last_migration_end),
        static_cast<double>(c.window_commits),
        static_cast<double>(c.window_aborts), c.settled ? 1.0 : 0.0,
        static_cast<double>(c.rearms), c.last_drift,
        static_cast<double>(c.peak_streams)}) {
    f.push_back(v);
  }
  for (const auto& [name, value] : r.delta) {
    f.push_back(static_cast<double>(value));
  }
  return f;
}

// ---------------------------------------------------------------------------
// Knee search (ycsb-open)
// ---------------------------------------------------------------------------

constexpr double kKneeLowTps = 0.5e6;
constexpr double kKneeHighTps = 3.0e6;
constexpr double kKneeStepTps = 5e3;
constexpr SimTime kKneeProbeWindow = 50 * kMillisecond;
constexpr double kKneeExecP99LimitUs = 50.0;
/// Shallow on purpose, as in bench/fig_scheduling: a deep queue lets p99
/// queueing delay pass p99 execution latency long before anything is shed.
constexpr uint32_t kKneeQueueCap = 10;

struct Probe {
  double exec_p99_us = 0.0;
  double queue_p99_us = 0.0;
  uint64_t shed = 0;
  /// The knee criterion: nothing shed, p99 admission-queue delay no larger
  /// than p99 execution latency, and p99 execution within the limit.
  bool sustained() const {
    return shed == 0 && queue_p99_us <= exec_p99_us &&
           exec_p99_us <= kKneeExecP99LimitUs;
  }
};

StatusOr<Probe> RunProbe(runner::ScenarioSpec spec, double offered_tps) {
  spec.offered_tps = offered_tps;
  spec.queue_cap = kKneeQueueCap;
  spec.measure = kKneeProbeWindow;
  auto result = runner::ScenarioRunner::Run(spec);
  if (!result.ok()) return result.status();
  const cc::RunStats& s = result->stats;
  Probe p;
  p.exec_p99_us = InterpolatedPercentile(CommitLatency(s), 99) / 1e3;
  p.queue_p99_us = InterpolatedPercentile(s.queue_delay, 99) / 1e3;
  p.shed = s.shed;
  return p;
}

/// Bisects [kKneeLowTps, kKneeHighTps] on a kKneeStepTps grid for the
/// highest offered load that meets the knee criterion, then probes that
/// load again: it must still meet the criterion.
StatusOr<double> FindKnee(const runner::ScenarioSpec& spec,
                          std::vector<std::string>* failures) {
  double lo = kKneeLowTps;
  double hi = kKneeHighTps;
  for (double rate : {lo, hi}) {
    auto probe = RunProbe(spec, rate);
    if (!probe.ok()) return probe.status();
    if (probe->sustained() != (rate == lo)) {
      failures->push_back("knee search: the knee is not inside [" +
                          std::to_string(lo) + ", " + std::to_string(hi) +
                          "] tps");
      return 0.0;
    }
  }
  while (hi - lo > kKneeStepTps) {
    const double mid = std::round((lo + hi) / 2.0 / kKneeStepTps) * kKneeStepTps;
    if (mid <= lo || mid >= hi) break;
    auto probe = RunProbe(spec, mid);
    if (!probe.ok()) return probe.status();
    (probe->sustained() ? lo : hi) = mid;
  }
  auto recheck = RunProbe(spec, lo);
  if (!recheck.ok()) return recheck.status();
  if (!recheck->sustained()) {
    failures->push_back("knee search: the probe at knee_tps is not sustained");
  }
  return lo;
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Per-metric median over the sub-runs.
Metrics MedianOf(const std::vector<Metrics>& runs) {
  Metrics out;
  for (const auto& [name, metric] : runs.front()) {
    std::vector<double> values;
    for (const Metrics& m : runs) values.push_back(m.at(name).value);
    out[name] = {Median(std::move(values)), metric.unit};
  }
  return out;
}

/// The simulated end-to-end metrics of one sub-run.
Metrics EndToEnd(const cc::RunStats& s) {
  const Histogram latency = CommitLatency(s);
  return {
      {"sim_tps", {s.Throughput(), "txn/sim-s"}},
      {"abort_rate", {s.AbortRate(), "share"}},
      {"failed_share",
       {Ratio(s.TotalConflictAborts() + s.TotalMigrationAborts() + s.shed,
              s.TotalAttempts() + s.shed),
        "share"}},
      {"p50_latency_us", {InterpolatedPercentile(latency, 50) / 1e3, "sim-us"}},
      {"p99_latency_us", {InterpolatedPercentile(latency, 99) / 1e3, "sim-us"}},
  };
}

/// The per-layer metrics a sub-run's untraced counters give.
Metrics LayerCounts(const RunResult& r, uint32_t num_engines) {
  const cc::RunStats& s = r.stats;
  const uint64_t commits = s.TotalCommits();
  auto d = [&](const char* name) { return r.delta.at(name); };
  auto per_commit = [&](const char* name) { return Ratio(d(name), commits); };
  const uint64_t two_region = d("two_region");
  const migrate::AdaptiveControllerReport& c = r.controller;
  return {
      {"sim.events", {static_cast<double>(d("events")), "count"}},
      {"sim.events_per_commit", {per_commit("events"), "events/commit"}},
      {"sim.engine_cpu_util",
       {Ratio(static_cast<double>(d("engine_busy_ns")),
              static_cast<double>(s.window) * num_engines),
        "share"}},
      {"net.messages_per_commit", {per_commit("messages"), "msgs/commit"}},
      {"net.bytes_per_commit", {per_commit("bytes"), "B/commit"}},
      {"net.rpcs_per_commit", {per_commit("rpcs"), "rpcs/commit"}},
      {"net.rdma_ops_per_commit", {per_commit("rdma_ops"), "ops/commit"}},
      {"cc.commits", {static_cast<double>(commits), "count"}},
      {"cc.attempts_per_commit",
       {Ratio(s.TotalAttempts(), commits), "attempts/commit"}},
      {"cc.aborts.contention",
       {per_commit("driver.aborts.contention"), "aborts/commit"}},
      {"cc.aborts.fallback",
       {per_commit("driver.aborts.fallback"), "aborts/commit"}},
      {"cc.aborts.migration",
       {per_commit("driver.aborts.migration"), "aborts/commit"}},
      {"cc.aborts.user", {per_commit("driver.aborts.user"), "aborts/commit"}},
      {"cc.replication_batches_per_commit",
       {per_commit("replication_batches"), "batches/commit"}},
      {"cc.shed_share", {s.ShedRate(), "share"}},
      {"chiller.two_region_share",
       {Ratio(two_region, two_region + d("fallback")), "share"}},
      {"chiller.inner_local_share",
       {Ratio(d("inner_local"), two_region), "share"}},
      {"chiller.inner_abort_share",
       {Ratio(d("inner_aborts"), two_region), "share"}},
      {"chiller.outer_abort_share",
       {Ratio(d("outer_aborts"), two_region), "share"}},
      {"schedule.routed_remote_share",
       {Ratio(d("sched.routed_remote"), s.admitted), "share"}},
      {"schedule.p99_queue_us",
       {InterpolatedPercentile(s.queue_delay, 99) / 1e3, "sim-us"}},
      {"migrate.relayout_ms",
       {static_cast<double>(c.migration_sim_time) / 1e6, "sim-ms"}},
      {"migrate.relayouts", {static_cast<double>(c.migrations), "count"}},
      {"migrate.rearms", {static_cast<double>(c.rearms), "count"}},
      {"migrate.epochs", {static_cast<double>(c.epochs), "count"}},
      {"migrate.moved_records", {static_cast<double>(c.moved_records), "count"}},
      {"migrate.buckets_moved", {static_cast<double>(c.buckets_moved), "count"}},
      {"migrate.peak_streams", {static_cast<double>(c.peak_streams), "count"}},
      {"migrate.abort_share",
       {Ratio(s.TotalMigrationAborts(), s.TotalAttempts()), "share"}},
  };
}

/// The per-layer metrics of the traced run's spans.
Metrics LayerSpans(const TraceBreakdown& t) {
  return {
      {"cc.attempt_us.p50", {SamplePercentile(t.attempt_us, 50), "sim-us"}},
      {"cc.attempt_us.p99", {SamplePercentile(t.attempt_us, 99), "sim-us"}},
      {"cc.outer_self_us.mean", {Mean(t.attempt_self_us), "sim-us"}},
      {"cc.commit_phase_us.mean", {Mean(t.commit_phase_us), "sim-us"}},
      {"cc.commit_phase_us.p99",
       {SamplePercentile(t.commit_phase_us, 99), "sim-us"}},
      {"cc.retry_backoff_us.per_commit",
       {Ratio(t.retry_backoff_us, static_cast<double>(t.commits)),
        "sim-us/commit"}},
      {"cc.queue_wait_us.p50", {SamplePercentile(t.queue_wait_us, 50), "sim-us"}},
      {"cc.queue_wait_us.p99", {SamplePercentile(t.queue_wait_us, 99), "sim-us"}},
      {"chiller.inner_region_us.mean", {Mean(t.inner_region_us), "sim-us"}},
      {"chiller.inner_region_us.p99",
       {SamplePercentile(t.inner_region_us, 99), "sim-us"}},
  };
}

Json ToJson(const Metrics& metrics) {
  Json out = Json::MakeObject();
  for (const auto& [name, metric] : metrics) {
    Json m = Json::MakeObject();
    m["value"] = metric.value;
    m["unit"] = metric.unit;
    out[name] = std::move(m);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool verify = false;
  std::string out;
};

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    std::string value;
    if (flag != "--verify") {
      if (i + 1 >= argc) {
        *error = "missing value for " + flag;
        return false;
      }
      value = argv[++i];
    }
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        *error = "--trace takes 0 or 1";
        return false;
      }
      args->trace = value == "1";
    } else if (flag == "--out") {
      args->out = value;
    } else if (flag == "--verify") {
      args->verify = true;
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
    if (end != nullptr && (*end != '\0' || value.empty())) {
      *error = "bad value for " + flag + ": '" + value + "'";
      return false;
    }
  }
  if (args->workload.empty()) {
    *error = "--workload is required";
    return false;
  }
  if (args->seed > UINT64_MAX / 1000 - 1) {
    *error = "--seed is too large";
    return false;
  }
  if (!(args->seconds > 0.0 && args->seconds <= 600.0)) {
    *error = "--seconds must be in (0, 600]";
    return false;
  }
  return true;
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "chiller_benchmark: %s\n", message.c_str());
  return 2;
}

/// --verify: sub-run 0 against ScenarioRunner::Run on the same spec, and
/// (sharded workloads) one simulator shard against the spec's count.
Status Verify(const runner::ScenarioSpec& spec, const RunResult& sub0,
              std::vector<std::string>* failures) {
  auto reference = runner::ScenarioRunner::Run(spec);
  if (!reference.ok()) return reference.status();
  if (StatsFingerprint(reference->stats) != StatsFingerprint(sub0.stats)) {
    failures->push_back("verify: RunStats differ from ScenarioRunner::Run");
  }
  if (spec.continuous) {
    const runner::AdaptiveReport& a = reference->adaptive;
    const migrate::AdaptiveControllerReport& c = sub0.controller;
    const bool same =
        a.controller_epochs == c.epochs &&
        a.controller_migrations == c.migrations &&
        a.sampled_txns == c.sampled_txns &&
        a.migration.moved_records == c.moved_records &&
        a.migration.moved_bytes == c.moved_bytes &&
        a.migration.sim_time == c.migration_sim_time &&
        a.buckets_moved == c.buckets_moved &&
        a.migration_start == c.first_migration_start &&
        a.migration_end == c.last_migration_end &&
        a.migration_window_commits == c.window_commits &&
        a.migration_window_aborts == c.window_aborts &&
        a.controller_settled == c.settled &&
        a.controller_rearms == c.rearms && a.last_drift == c.last_drift &&
        a.peak_streams == c.peak_streams;
    if (!same) {
      failures->push_back(
          "verify: controller report differs from ScenarioRunner::Run");
    }
  }
  if (spec.shards > 1) {
    runner::ScenarioSpec serial = spec;
    serial.shards = 1;
    auto one = RunOnce(serial, /*check_state=*/false);
    if (!one.ok()) return one.status();
    if (StatsFingerprint(one->stats) != StatsFingerprint(sub0.stats)) {
      failures->push_back("verify: shards=1 and shards=" +
                          std::to_string(spec.shards) +
                          " simulated results differ");
    }
  }
  return Status::OK();
}

int Main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) return Fail(error);
  if (std::string(CHILLER_BENCH_BUILD_TYPE) != "Release" ||
      CHILLER_BENCH_SANITIZED) {
    return Fail(std::string("host metrics need a Release build without "
                            "sanitizers (this is ") +
                CHILLER_BENCH_BUILD_TYPE +
                (CHILLER_BENCH_SANITIZED ? ", sanitized)" : ")"));
  }
  auto made = MakeWorkload(args.workload);
  if (!made.ok()) return Fail(made.status().ToString());
  const runner::ScenarioSpec& workload = made.value();
  const std::string& name = workload.label;
  auto sub_spec = [&](int i) {
    runner::ScenarioSpec spec = workload;
    spec.seed = SubRunSeed(args.seed, i);
    return spec;
  };

  // The sub-runs, then repeats until --seconds have passed. The
  // calibration kernel runs before the first run and after every run.
  struct HostSample {
    double setup_s = 0.0;
    double host_run_s = 0.0;
    double cpu_s = 0.0;
    double controller_s = 0.0;
    uint64_t events = 0;
  };
  std::vector<RunResult> subs;
  std::vector<HostSample> host;
  std::vector<double> calibration_s = {CalibrationSeconds()};
  std::vector<std::string> failures;
  const Clock::time_point start = Clock::now();
  for (int n = 0; n <= kSubRuns || (SecondsSince(start) < args.seconds &&
                                    n < kMaxRuns);
       ++n) {
    const int i = n % kSubRuns;
    auto run = RunOnce(sub_spec(i), /*check_state=*/n < kSubRuns);
    if (!run.ok()) return Fail(run.status().ToString());
    calibration_s.push_back(CalibrationSeconds());
    std::fprintf(stderr,
                 "[%s] run %d (sub-run %d): setup %.3f s, run %.3f s, "
                 "calibration %.3f s\n",
                 name.c_str(), n, i, run->setup_s, run->host_run_s,
                 calibration_s.back());
    for (const std::string& f : run->failures) failures.push_back(f);
    host.push_back({run->setup_s, run->host_run_s, run->cpu_s,
                    run->controller_host_s, run->delta.at("events")});
    if (n < kSubRuns) {
      subs.push_back(std::move(run).value());
    } else if (RunFingerprint(*run) != RunFingerprint(subs[i])) {
      failures.push_back("sub-run " + std::to_string(i) +
                         " did not reproduce its simulated results");
    }
  }
  std::vector<double> setup_s, host_run_s, cpu_per_wall, controller_s,
      events_per_s, raw_setup_s, raw_host_run_s;
  for (size_t n = 0; n < host.size(); ++n) {
    const double scale = CalibrationScale(calibration_s, n);
    const HostSample& h = host[n];
    raw_setup_s.push_back(h.setup_s);
    raw_host_run_s.push_back(h.host_run_s);
    setup_s.push_back(h.setup_s * scale);
    host_run_s.push_back(h.host_run_s * scale);
    cpu_per_wall.push_back(h.cpu_s / h.host_run_s);
    controller_s.push_back(h.controller_s * scale);
    events_per_s.push_back(static_cast<double>(h.events) /
                           (h.host_run_s * scale));
  }
  const double peak_rss_mb = PeakRssMb();

  std::vector<Metrics> e2e_runs;
  std::vector<Metrics> layer_runs;
  uint64_t attempted = 0;
  uint64_t shed = 0;
  uint64_t commits = 0;
  uint64_t replica_mismatches = 0;
  for (const RunResult& r : subs) {
    e2e_runs.push_back(EndToEnd(r.stats));
    layer_runs.push_back(LayerCounts(r, workload.partitions()));
    // A request counts as attempted once it finished or was refused; it
    // failed when refused (shed). Conflict aborts retry to completion.
    uint64_t user_aborts = 0;
    for (const cc::ClassStats& c : r.stats.classes) user_aborts += c.user_aborts;
    attempted += r.stats.TotalCommits() + user_aborts + r.stats.shed;
    shed += r.stats.shed;
    commits += r.stats.TotalCommits();
    replica_mismatches += r.replica_mismatches;
  }
  if (replica_mismatches > 0) {
    std::fprintf(stderr,
                 "[%s] warning: %llu replica stores differ from their "
                 "primary after the drain\n",
                 name.c_str(),
                 static_cast<unsigned long long>(replica_mismatches));
  }
  Metrics e2e = MedianOf(e2e_runs);
  e2e["setup_s"] = {Median(setup_s), "s"};
  e2e["host_run_s"] = {Median(host_run_s), "s"};
  e2e["peak_rss_mb"] = {peak_rss_mb, "MB"};

  Metrics layers = MedianOf(layer_runs);
  layers["sim.events_per_host_s"] = {Median(events_per_s), "events/s"};
  layers["sim.cpu_per_wall"] = {Median(cpu_per_wall), "ratio"};
  layers["migrate.controller_host_s"] = {Median(controller_s), "s"};
  layers["cc.replica_mismatches"] = {static_cast<double>(replica_mismatches),
                                     "count"};

  TraceBreakdown breakdown;
  std::vector<double> traced_host_run_s;
  uint64_t trace_events = 0;
  double knee_tps = 0.0;
  if (args.trace) {
    runner::ScenarioSpec spec = sub_spec(0);
    spec.trace_sample_every = kTraceSampleEvery;
    RunResult first;
    for (int t = 0; t < kTracedRuns; ++t) {
      auto traced = RunOnce(spec, /*check_state=*/false);
      if (!traced.ok()) return Fail(traced.status().ToString());
      calibration_s.push_back(CalibrationSeconds());
      traced_host_run_s.push_back(
          traced->host_run_s *
          CalibrationScale(calibration_s, calibration_s.size() - 2));
      for (const std::string& f : traced->failures) failures.push_back(f);
      if (RunFingerprint(*traced) != RunFingerprint(subs[0])) {
        failures.push_back("traced run's simulated results differ from the "
                           "untraced run's");
      }
      if (t == 0) {
        first = std::move(traced).value();
      } else if (traced->trace_json != first.trace_json) {
        failures.push_back("traced runs of one spec wrote different traces");
      }
    }
    trace_events = first.trace_events;
    auto analyzed =
        AnalyzeTrace(first.trace_json, first.window_start, first.window_end);
    if (!analyzed.ok()) {
      failures.push_back("trace does not parse: " +
                         analyzed.status().ToString());
    } else {
      breakdown = std::move(analyzed).value();
    }
    if (!args.out.empty()) {
      const std::string path = args.out + "/" + name + ".trace.json";
      std::ofstream f(path, std::ios::binary);
      f << first.trace_json;
      if (!f) failures.push_back("cannot write " + path);
    }
    if (workload.load_model == "open") {
      auto knee = FindKnee(sub_spec(0), &failures);
      if (!knee.ok()) return Fail(knee.status().ToString());
      knee_tps = knee.value();
    }
  }
  for (auto& [span_metric, metric] : LayerSpans(breakdown)) {
    layers[span_metric] = metric;
  }
  layers["schedule.knee_tps"] = {knee_tps, "txn/sim-s"};
  layers["obs.trace_overhead_share"] = {
      args.trace ? Median(traced_host_run_s) / Median(host_run_s) - 1.0 : 0.0,
      "share"};
  layers["obs.trace_events"] = {static_cast<double>(trace_events), "count"};

  if (args.verify) {
    Status st = Verify(sub_spec(0), subs[0], &failures);
    if (!st.ok()) return Fail(st.ToString());
  }

  Json out = Json::MakeObject();
  out["workload"] = name;
  out["seed"] = args.seed;
  out["runs"] = static_cast<uint64_t>(host.size());
  out["correct"] = failures.empty();
  Json failure_list = Json::MakeArray();
  for (const std::string& f : failures) failure_list.Append(f);
  out["failures"] = std::move(failure_list);
  out["attempted"] = attempted;
  out["failed"] = shed;
  out["end_to_end"] = ToJson(e2e);
  out["per_layer"] = ToJson(layers);
  Json samples = Json::MakeObject();
  samples["sub_runs"] = kSubRuns;
  samples["commits"] = commits;
  samples["traced_attempts"] =
      static_cast<uint64_t>(breakdown.attempt_us.size());
  samples["traced_commits"] = breakdown.commits;
  out["samples"] = std::move(samples);
  // The unscaled medians behind the host metrics.
  Json wall = Json::MakeObject();
  wall["calibration_s"] = Median(calibration_s);
  wall["setup_s"] = Median(raw_setup_s);
  wall["host_run_s"] = Median(raw_host_run_s);
  out["wall_clock"] = std::move(wall);
  Json build = Json::MakeObject();
  build["build_type"] = CHILLER_BENCH_BUILD_TYPE;
  build["compiler"] = CHILLER_BENCH_COMPILER;
  build["nproc"] = std::thread::hardware_concurrency();
  out["build"] = std::move(build);
  std::printf("%s\n", out.Dump().c_str());
  return 0;
}

}  // namespace
}  // namespace chiller::benchmark

int main(int argc, char** argv) {
  return chiller::benchmark::Main(argc, argv);
}
