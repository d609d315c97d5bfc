// Ablation for the Section 1 claim: "re-ordering operations without
// re-considering the partitioning scheme only leads to limited performance
// improvements; the challenge lies in optimizing both at the same time."
//
// Grid: {hash layout, chiller layout} x {two-region execution off, on}
// on the Instacart-like workload at 8 partitions.
#include <cstdio>

#include "bench/bench_flags.h"
#include "bench/bench_report.h"
#include "bench/bench_sweep.h"

namespace chiller::bench {
namespace {

constexpr uint32_t kPartitions = 8;

void Main(const BenchFlags& flags) {
  std::printf(
      "Ablation — execution re-ordering vs contention-aware partitioning\n"
      "(Instacart-like, %u partitions; K txns/sec).\n"
      "paper claim: re-ordering alone gives limited gains; the win comes\n"
      "from optimizing order AND placement together.\n\n",
      kPartitions);

  BenchReport report("ablation_reorder_vs_partition");
  report.SetConfig("partitions", kPartitions);
  report.SetConfig("concurrency", flags.concurrency);
  report.SetConfig("warmup_ms", flags.warmup_ms);
  report.SetConfig("duration_ms", flags.duration_ms);
  report.SetConfig("seed", flags.seed);
  report.SetConfig("tail_theta", flags.theta);

  // The grid in run order: (layout, two-region?).
  struct Cell {
    const char* layout;
    bool two_region;
  };
  const std::vector<Cell> cells = {{"hash", false},
                                   {"hash", true},
                                   {"chiller", false},
                                   {"chiller", true}};

  std::vector<runner::ScenarioSpec> specs;
  for (const Cell& cell : cells) {
    runner::ScenarioSpec spec;
    spec.label = cell.layout;
    spec.workload = "instacart";
    spec.protocol = cell.two_region ? "chiller" : "chiller-plain";
    spec.nodes = kPartitions;
    spec.engines_per_node = 1;
    spec.concurrency = flags.concurrency;
    spec.seed = flags.seed;
    spec.warmup = static_cast<SimTime>(flags.warmup_ms * kMillisecond);
    spec.measure = static_cast<SimTime>(flags.duration_ms * kMillisecond);
    ApplyLoadModelFlags(flags, &spec);
    spec.options.Set("num_products", 20000);
    spec.options.Set("num_customers", 50000);
    spec.options.Set("tail_theta", flags.theta);
    spec.options.Set("layout", cell.layout);
    spec.options.Set("trace_txns", 8000);
    spec.options.Set("layout_seed", flags.seed + 6);
    specs.push_back(std::move(spec));
  }

  Sweep sweep(flags, "ablation_reorder_vs_partition");
  const auto results = sweep.Run(specs);

  std::vector<double> tput;
  for (size_t i = 0; i < results.size(); ++i) {
    const runner::ScenarioResult& r = results[i];
    Json params = Json::MakeObject();
    params["layout"] = r.spec.label;
    params["two_region"] = cells[i].two_region;
    report.AddRun(r.spec.protocol, std::move(params), r.stats);
    tput.push_back(r.stats.Throughput() / 1000.0);
  }

  const double base = tput[0];
  std::printf("%-44s %10.1f (1.00x)\n",
              "hash layout, plain 2PL (baseline)", base);
  std::printf("%-44s %10.1f (%.2fx)\n",
              "hash layout + two-region re-ordering", tput[1],
              tput[1] / base);
  std::printf("%-44s %10.1f (%.2fx)\n",
              "chiller layout, plain 2PL", tput[2], tput[2] / base);
  std::printf("%-44s %10.1f (%.2fx)\n",
              "chiller layout + two-region (full system)", tput[3],
              tput[3] / base);
  std::printf("\n");
  sweep.PrintWallClock();

  report.MaybeWrite(flags.emit_json,
                    flags.JsonPathFor("ablation_reorder_vs_partition"));
}

}  // namespace
}  // namespace chiller::bench

int main(int argc, char** argv) {
  chiller::bench::BenchFlags defaults;
  defaults.duration_ms = 25.0;
  defaults.theta = 0.6;  // the Instacart catalog tail skew
  chiller::bench::Main(chiller::bench::ParseBenchFlagsOrExit(
      argc, argv, "ablation_reorder_vs_partition", defaults));
}
