// Online repartitioning (paper Section 4.1 end to end): ycsb traffic
// starts on a contention-oblivious hash layout, a sampling StatsCollector
// observes the commit stream live, and a replan + migrate phase pair swaps
// in a Chiller layout mid-run. Sweeps the sample rate (the paper argues
// 0.001 suffices) and reports, per rate:
//
//   hash     — the same spec with the adaptive phases removed: the layout
//              stays hash-partitioned for the whole run (the floor);
//   adaptive — sample -> replan -> migrate -> re-warm -> measure: what the
//              converged layout is worth after paying the migration pause.
//
// The paper's claim reproduced here: the adaptive run's measured window
// must beat the static hash layout on a contended workload at every sample
// rate, with the gap opening once the sample covers the contended head of
// the key distribution. (Absolute sampled-txn counts drive layout quality;
// the paper's 0.001 suffices because real runs observe minutes of traffic,
// where these simulated windows observe milliseconds.)
#include <cstdio>

#include "bench/bench_flags.h"
#include "bench/bench_report.h"
#include "bench/bench_sweep.h"

namespace chiller::bench {
namespace {

void Main(const BenchFlags& flags) {
  std::printf(
      "Adaptive relayout — ycsb (theta=%.2f) on %u nodes x %u engines,\n"
      "%s protocol; hash layout vs live sample -> replan -> migrate,\n"
      "sweeping the stats-service sample rate.\n\n",
      flags.theta, flags.nodes, flags.engines, flags.protocol.c_str());

  BenchReport report("adaptive");
  report.SetConfig("nodes", flags.nodes);
  report.SetConfig("engines_per_node", flags.engines);
  report.SetConfig("protocol", flags.protocol);
  report.SetConfig("theta", flags.theta);
  report.SetConfig("warmup_ms", flags.warmup_ms);
  report.SetConfig("duration_ms", flags.duration_ms);
  report.SetConfig("seed", flags.seed);

  const std::vector<double> sample_rates = {0.001, 0.01, 0.1, 1.0};

  runner::ScenarioSpec base = flags.BaseSpec();
  base.workload = "adaptive";
  base.options.Set("theta", flags.theta);
  base.options.Set("keys_per_partition", 10000);
  const SimTime warmup = base.warmup;
  const SimTime measure = base.measure;
  // The sample window doubles as extra warmup for the static baseline, so
  // both modes measure after the same total simulated time.
  const SimTime sample = 2 * warmup + measure;
  const SimTime resettle = warmup;

  // One adaptive scenario per sample rate, plus a single static-hash
  // floor: the baseline's phase plan does not depend on the rate, so one
  // simulation serves every table column.
  std::vector<runner::ScenarioSpec> specs;
  for (double rate : sample_rates) {
    runner::ScenarioSpec adaptive = base;
    adaptive.label = "adaptive";
    adaptive.phases = {
        runner::Phase::Warmup(warmup),
        runner::Phase::Sample(sample, rate),
        runner::Phase::Replan(),
        runner::Phase::Migrate(),
        runner::Phase::Warmup(resettle),
        runner::Phase::Measure(measure),
    };
    specs.push_back(adaptive);
  }
  runner::ScenarioSpec hash = base;
  hash.label = "hash";
  hash.phases = {
      runner::Phase::Warmup(warmup + sample + resettle),
      runner::Phase::Measure(measure),
  };
  specs.push_back(hash);

  Sweep sweep(flags, "adaptive");
  const auto results = sweep.Run(specs);
  const runner::ScenarioResult& hash_result = results.back();

  auto add_row = [&](const runner::ScenarioResult& r, double rate) {
    Json params = Json::MakeObject();
    params["mode"] = r.spec.label;
    params["sample_rate"] = rate;
    Json row = ResultRow(flags.protocol, std::move(params), r.stats);
    row["sampled_txns"] = r.adaptive.sampled_txns;
    row["hot_records"] = static_cast<uint64_t>(r.adaptive.hot_records);
    row["lookup_entries"] = static_cast<uint64_t>(r.adaptive.lookup_entries);
    row["moved_records"] = r.adaptive.migration.moved_records;
    row["moved_bytes"] = r.adaptive.migration.moved_bytes;
    row["migration_us"] =
        static_cast<double>(r.adaptive.migration.sim_time) / 1000.0;
    report.Add(std::move(row));
  };

  std::vector<double> hash_tput, adaptive_tput, moved, sampled;
  for (size_t i = 0; i < sample_rates.size(); ++i) {
    const runner::ScenarioResult& r = results[i];
    add_row(r, sample_rates[i]);
    add_row(hash_result, sample_rates[i]);  // the floor, per table column
    adaptive_tput.push_back(r.stats.Throughput() / 1e6);
    moved.push_back(static_cast<double>(r.adaptive.migration.moved_records));
    sampled.push_back(static_cast<double>(r.adaptive.sampled_txns));
    hash_tput.push_back(hash_result.stats.Throughput() / 1e6);
  }

  std::printf("Throughput (M txns/sec) vs stats-service sample rate\n");
  PrintHeader("sample rate", sample_rates);
  PrintRow("hash (static)", hash_tput, "%8.3f");
  PrintRow("adaptive (relayout)", adaptive_tput, "%8.3f");
  std::printf("\nAdaptive-loop accounting\n");
  PrintHeader("sample rate", sample_rates);
  PrintRow("sampled txns", sampled, "%8.0f");
  PrintRow("records moved", moved, "%8.0f");

  std::printf("\n");
  sweep.PrintWallClock();

  report.MaybeWrite(flags.emit_json, flags.JsonPathFor("adaptive"));
}

}  // namespace
}  // namespace chiller::bench

int main(int argc, char** argv) {
  chiller::bench::BenchFlags defaults;
  defaults.theta = 0.9;  // contended: the regime the adaptive loop targets
  // The adaptive-vs-hash claim is a closed-loop throughput gap; under an
  // open loop below the knee both layouts just serve the offered rate.
  chiller::bench::Main(chiller::bench::ParseBenchFlagsOrExit(
      argc, argv, "adaptive", defaults,
      chiller::bench::kClosedLoopOnlyFlags));
}
