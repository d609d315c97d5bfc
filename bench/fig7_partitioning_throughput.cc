// Figure 7: Instacart-like NewOrder throughput vs. number of partitions,
// comparing Hashing / Schism / Chiller partitioning under the same
// execution engine (one engine per machine, replication degree 2).
//
// Paper expectation: Schism ~ +50% over hashing but neither scales with
// partitions; Chiller scales almost linearly and is highest throughout.
#include <cstdio>

#include "bench/bench_flags.h"
#include "bench/bench_report.h"
#include "bench/bench_sweep.h"

namespace chiller::bench {
namespace {

void Main(const BenchFlags& flags) {
  std::printf(
      "Figure 7 — Instacart NewOrder throughput (K txns/sec) vs partitions\n"
      "paper shape: Chiller highest and ~linear; Schism ~+50%% over hash;\n"
      "neither baseline scales.\n\n");

  BenchReport report("fig7");
  report.SetConfig("protocol", flags.protocol);
  report.SetConfig("concurrency", flags.concurrency);
  report.SetConfig("warmup_ms", flags.warmup_ms);
  report.SetConfig("duration_ms", flags.duration_ms);
  report.SetConfig("seed", flags.seed);
  report.SetConfig("tail_theta", flags.theta);

  const std::vector<double> ks = {2, 3, 4, 5, 6, 7, 8};
  const std::vector<std::string> layouts = {"hash", "schism", "chiller"};

  std::vector<runner::ScenarioSpec> specs;
  for (double kd : ks) {
    const uint32_t k = static_cast<uint32_t>(kd);
    for (const std::string& layout : layouts) {
      runner::ScenarioSpec spec = flags.BaseSpec();
      spec.label = layout;
      spec.workload = "instacart";
      spec.nodes = k;
      spec.engines_per_node = 1;
      spec.seed = flags.seed + k;
      spec.options.Set("num_products", 20000);
      spec.options.Set("tail_theta", flags.theta);
      spec.options.Set("layout", layout);
      spec.options.Set("trace_txns", 8000);
      spec.options.Set("layout_seed", flags.seed + 6);
      specs.push_back(std::move(spec));
    }
  }

  Sweep sweep(flags, "fig7");
  const auto results = sweep.Run(specs);

  std::vector<std::vector<double>> tput(layouts.size());
  for (size_t i = 0; i < results.size(); ++i) {
    const runner::ScenarioResult& r = results[i];

    Json params = Json::MakeObject();
    params["partitions"] = r.spec.partitions();
    params["layout"] = r.spec.label;
    report.AddRun(r.spec.protocol, std::move(params), r.stats);
    tput[i % layouts.size()].push_back(r.stats.Throughput() / 1000.0);
  }
  const std::vector<double>& hash_s = tput[0];
  const std::vector<double>& schism_s = tput[1];
  const std::vector<double>& chiller_s = tput[2];

  PrintHeader("partitions", ks);
  PrintRow("Hashing", hash_s, "%8.1f");
  PrintRow("Schism", schism_s, "%8.1f");
  PrintRow("Chiller", chiller_s, "%8.1f");

  const double speedup = chiller_s.back() / chiller_s.front();
  std::printf("\nChiller 8-vs-2 partition scaling: %.2fx (ideal 4.0x)\n",
              speedup);
  std::printf("Chiller vs best baseline at 8 partitions: %.2fx\n",
              chiller_s.back() / std::max(hash_s.back(), schism_s.back()));
  std::printf("\n");
  sweep.PrintWallClock();

  report.MaybeWrite(flags.emit_json, flags.JsonPathFor("fig7"));
}

}  // namespace
}  // namespace chiller::bench

int main(int argc, char** argv) {
  chiller::bench::BenchFlags defaults;
  defaults.duration_ms = 30.0;  // longer window: per-partition rates are low
  defaults.theta = 0.6;         // the Instacart catalog tail skew
  // The x-axis is the partition count: one engine on each of k nodes.
  chiller::bench::Main(chiller::bench::ParseBenchFlagsOrExit(
      argc, argv, "fig7", defaults, {"nodes", "engines"}));
}
