// Ablation for the Section 4.4 co-optimization: adding a minimum weight to
// every star edge also pulls co-accessed cold records together, trading
// residual contention for fewer distributed transactions.
//
// Each min-weight point builds its own partitioner from the shared trace,
// fanned across the --jobs pool.
#include <cstdio>

#include "bench/bench_flags.h"
#include "bench/bench_report.h"
#include "partition/chiller_partitioner.h"
#include "partition/metrics.h"
#include "runner/sweep.h"
#include "workload/instacart.h"

namespace chiller::bench {
namespace {

namespace instacart = workload::instacart;

void Main(const BenchFlags& flags) {
  std::printf(
      "Ablation — Section 4.4 co-optimization (min edge weight sweep).\n"
      "Larger minimum weights co-locate whole transactions (fewer\n"
      "distributed txns) at some cost in residual contention.\n\n");

  BenchReport report("ablation_cooptimization");
  report.SetConfig("partitions", 8);
  report.SetConfig("trace_txns", 8000);
  report.SetConfig("seed", flags.seed);
  report.SetConfig("tail_theta", flags.theta);

  instacart::InstacartWorkload::Options wopts;
  wopts.num_products = 20000;
  wopts.tail_theta = flags.theta;
  instacart::InstacartWorkload wl(wopts);
  // flags.seed + 30/31 keeps the default (seed=1) identical to the
  // pre-harness Rng(31)/Rng(32) runs.
  Rng rng(flags.seed + 30);
  const auto traces = wl.GenerateTrace(8000, &rng);
  partition::StatsCollector stats;
  for (const auto& t : traces) stats.ObserveTrace(t);
  Rng eval_rng(flags.seed + 31);
  const auto eval = wl.GenerateTrace(8000, &eval_rng);
  partition::StatsCollector eval_stats;
  for (const auto& t : eval) eval_stats.ObserveTrace(t);

  const std::vector<double> weights = {0.0, 0.01, 0.05, 0.2, 0.5, 1.0};
  struct WPoint {
    double dist = 0;
    double resid = 0;
    double cut = 0;
  };
  // The trace/eval vectors are shared read-only across workers.
  auto points =
      runner::ParallelMap(flags.jobs, weights.size(), [&](size_t i) {
        partition::ChillerPartitioner::Options opts;
        opts.k = 8;
        opts.hot_threshold = 0.01;
        opts.min_edge_weight = weights[i];
        auto out = partition::ChillerPartitioner::Build(traces, opts);
        WPoint p;
        p.dist = partition::DistributedRatio(eval, *out.partitioner);
        p.resid = partition::ResidualContention(
            eval, {out.partitioner.get()}, eval_stats, 16.0)[0];
        p.cut = out.report.cut_weight;
        return p;
      });

  std::printf("%-16s %14s %14s %14s\n", "min-edge-weight", "dist-ratio",
              "resid-cont", "cut");
  for (size_t i = 0; i < weights.size(); ++i) {
    const WPoint& p = points[i];
    std::printf("%-16.2f %14.3f %14.1f %14.1f\n", weights[i], p.dist, p.resid,
                p.cut);

    Json row = Json::MakeObject();
    row["params"]["min_edge_weight"] = weights[i];
    row["distributed_ratio"] = p.dist;
    row["residual_contention"] = p.resid;
    row["cut_weight"] = p.cut;
    report.Add(std::move(row));
  }

  report.MaybeWrite(flags.emit_json,
                    flags.JsonPathFor("ablation_cooptimization"));
}

}  // namespace
}  // namespace chiller::bench

int main(int argc, char** argv) {
  chiller::bench::BenchFlags defaults;
  defaults.theta = 0.6;  // the Instacart catalog tail skew
  chiller::bench::Main(chiller::bench::ParseBenchFlagsOrExit(
      argc, argv, "ablation_cooptimization", defaults,
      chiller::bench::kNoSimulatorFlags));
}
