// YCSB sensitivity grid: zipf skew (theta) x fraction of distributed
// transactions, all four protocols on the same range layout. The two axes
// are the paper's evaluation knobs: theta moves records across the
// contention model's hot/cold boundary (Section 4.1), the distributed
// ratio is the Figure 10 x-axis decoupled from TPC-C semantics. Expected
// shape: every protocol degrades with skew, but Chiller's two-region
// execution holds its throughput where 2PL and OCC collapse, and stays
// nearly flat as transactions span partitions.
#include <cstdio>

#include "bench/bench_flags.h"
#include "bench/bench_report.h"
#include "bench/bench_sweep.h"

namespace chiller::bench {
namespace {

void Main(const BenchFlags& flags) {
  std::printf(
      "YCSB sensitivity — %u nodes x %u engines, %u open txns/engine;\n"
      "theta x distributed_ratio grid for every protocol.\n\n",
      flags.nodes, flags.engines, flags.concurrency);

  BenchReport report("ycsb");
  report.SetConfig("nodes", flags.nodes);
  report.SetConfig("engines_per_node", flags.engines);
  report.SetConfig("concurrency", flags.concurrency);
  report.SetConfig("warmup_ms", flags.warmup_ms);
  report.SetConfig("duration_ms", flags.duration_ms);
  report.SetConfig("seed", flags.seed);

  const std::vector<double> thetas = {0.5, 0.8, 0.95};
  const std::vector<double> dist_ratios = {0.0, 0.2, 0.5};
  const std::vector<std::string> protocols = {"2pl", "occ", "chiller",
                                              "chiller-plain"};

  std::vector<runner::ScenarioSpec> specs;
  for (double theta : thetas) {
    for (double dr : dist_ratios) {
      for (const std::string& proto : protocols) {
        runner::ScenarioSpec spec;
        spec.label = proto;
        spec.workload = "ycsb";
        spec.protocol = proto;
        spec.nodes = flags.nodes;
        spec.engines_per_node = flags.engines;
        spec.concurrency = flags.concurrency;
        spec.seed = flags.seed;
        spec.warmup = static_cast<SimTime>(flags.warmup_ms * kMillisecond);
        spec.measure = static_cast<SimTime>(flags.duration_ms * kMillisecond);
        ApplyLoadModelFlags(flags, &spec);
        spec.options.Set("theta", theta);
        spec.options.Set("distributed_ratio", dr);
        specs.push_back(std::move(spec));
      }
    }
  }

  Sweep sweep(flags, "ycsb");
  const auto results = sweep.Run(specs);

  for (const runner::ScenarioResult& r : results) {
    Json params = Json::MakeObject();
    params["theta"] = r.spec.options.GetDouble("theta", 0.0);
    params["distributed_ratio"] =
        r.spec.options.GetDouble("distributed_ratio", 0.0);
    report.AddRun(r.spec.protocol, std::move(params), r.stats);
  }

  // results[] is in grid order: theta-major, then distributed_ratio, then
  // protocol — recover the indices instead of re-deriving the grid.
  const size_t per_theta = dist_ratios.size() * protocols.size();
  for (size_t ti = 0; ti < thetas.size(); ++ti) {
    std::printf("theta = %.2f — throughput (M txns/sec) / abort rate\n",
                thetas[ti]);
    PrintHeader("% distributed", dist_ratios);
    for (size_t pi = 0; pi < protocols.size(); ++pi) {
      std::vector<double> tput, aborts;
      for (size_t di = 0; di < dist_ratios.size(); ++di) {
        const auto& r = results[ti * per_theta + di * protocols.size() + pi];
        tput.push_back(r.stats.Throughput() / 1e6);
        aborts.push_back(r.stats.AbortRate());
      }
      PrintRow(protocols[pi] + " tput", tput, "%8.3f");
      PrintRow(protocols[pi] + " abort", aborts, "%8.3f");
    }
    std::printf("\n");
  }

  sweep.PrintWallClock();

  report.MaybeWrite(flags.emit_json, flags.JsonPathFor("ycsb"));
}

}  // namespace
}  // namespace chiller::bench

int main(int argc, char** argv) {
  chiller::bench::BenchFlags defaults;
  defaults.nodes = 4;
  defaults.duration_ms = 10.0;
  chiller::bench::Main(chiller::bench::ParseBenchFlagsOrExit(
      argc, argv, "ycsb", defaults));
}
