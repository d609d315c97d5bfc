// Figure 8: ratio of distributed transactions produced by each partitioning
// scheme, vs. number of partitions, on the Instacart-like workload.
//
// Paper expectation: Schism lowest (it optimizes exactly this metric);
// Chiller noticeably higher (~+60% at 2 partitions, gap narrowing with
// more partitions); hashing highest. Chiller wins Figure 7 anyway — the
// point of the paper: distributed-transaction count is the wrong objective
// on fast networks.
//
// No simulator runs here — each grid point builds the three layouts and
// evaluates them on a held-out trace, fanned across the --jobs pool.
#include <cstdio>

#include "bench/bench_flags.h"
#include "bench/bench_report.h"
#include "partition/metrics.h"
#include "runner/sweep.h"
#include "workload/instacart.h"

namespace chiller::bench {
namespace {

namespace instacart = workload::instacart;

struct KPoint {
  double dist_hash, dist_schism, dist_chiller;
  double resid_hash, resid_schism, resid_chiller;
};

void Main(const BenchFlags& flags) {
  std::printf(
      "Figure 8 — ratio of distributed transactions vs partitions\n"
      "paper shape: Schism < Chiller < Hashing; gap narrows with more\n"
      "partitions.\n\n");

  BenchReport report("fig8");
  report.SetConfig("trace_txns", 8000);
  report.SetConfig("seed", flags.seed);
  report.SetConfig("tail_theta", flags.theta);

  instacart::InstacartWorkload::Options wopts;
  wopts.num_products = 20000;
  wopts.tail_theta = flags.theta;

  const std::vector<double> ks = {2, 3, 4, 5, 6, 7, 8};
  auto points = runner::ParallelMap(flags.jobs, ks.size(), [&](size_t i) {
    const uint32_t k = static_cast<uint32_t>(ks[i]);
    instacart::InstacartWorkload wl(wopts);
    auto layouts = instacart::BuildInstacartLayouts(&wl, k, /*trace_txns=*/8000,
                                                    /*seed=*/flags.seed + 6);
    // Evaluate on a fresh sample from the same distribution (test set).
    // flags.seed + 999 keeps the default (seed=1) identical to the
    // pre-harness Rng(1000 + k) runs.
    Rng rng(flags.seed + 999 + k);
    auto eval = wl.GenerateTrace(8000, &rng);
    partition::StatsCollector stats;
    for (const auto& t : eval) stats.ObserveTrace(t);

    KPoint p;
    p.dist_hash = partition::DistributedRatio(eval, *layouts.hashing);
    p.dist_schism = partition::DistributedRatio(eval, *layouts.schism);
    p.dist_chiller =
        partition::DistributedRatio(eval, *layouts.chiller_out.partitioner);
    const std::vector<double> resid = partition::ResidualContention(
        eval,
        {layouts.hashing.get(), layouts.schism.get(),
         layouts.chiller_out.partitioner.get()},
        stats, 16.0);
    p.resid_hash = resid[0];
    p.resid_schism = resid[1];
    p.resid_chiller = resid[2];
    std::fprintf(stderr, "  [fig8] k=%u done\n", k);
    return p;
  });

  std::vector<double> hash_s, schism_s, chiller_s, resid_hash, resid_schism,
      resid_chiller;
  for (size_t i = 0; i < points.size(); ++i) {
    const KPoint& p = points[i];
    const uint32_t k = static_cast<uint32_t>(ks[i]);
    hash_s.push_back(p.dist_hash);
    schism_s.push_back(p.dist_schism);
    chiller_s.push_back(p.dist_chiller);
    resid_hash.push_back(p.resid_hash);
    resid_schism.push_back(p.resid_schism);
    resid_chiller.push_back(p.resid_chiller);
    struct LayoutRow {
      const char* layout;
      double dist;
      double resid;
    };
    for (const LayoutRow& r :
         {LayoutRow{"hash", p.dist_hash, p.resid_hash},
          LayoutRow{"schism", p.dist_schism, p.resid_schism},
          LayoutRow{"chiller", p.dist_chiller, p.resid_chiller}}) {
      Json row = Json::MakeObject();
      row["params"]["partitions"] = k;
      row["params"]["layout"] = r.layout;
      row["distributed_ratio"] = r.dist;
      row["residual_contention"] = r.resid;
      report.Add(std::move(row));
    }
  }

  PrintHeader("partitions", ks);
  PrintRow("Hashing", hash_s, "%8.3f");
  PrintRow("Schism", schism_s, "%8.3f");
  PrintRow("Chiller", chiller_s, "%8.3f");

  std::printf("\nResidual contention (the objective Chiller optimizes; "
              "lower is better):\n");
  PrintHeader("partitions", ks);
  PrintRow("Hashing", resid_hash, "%8.1f");
  PrintRow("Schism", resid_schism, "%8.1f");
  PrintRow("Chiller", resid_chiller, "%8.1f");

  report.MaybeWrite(flags.emit_json, flags.JsonPathFor("fig8"));
}

}  // namespace
}  // namespace chiller::bench

int main(int argc, char** argv) {
  chiller::bench::BenchFlags defaults;
  defaults.theta = 0.6;  // the Instacart catalog tail skew
  chiller::bench::Main(
      chiller::bench::ParseBenchFlagsOrExit(argc, argv, "fig8", defaults,
                                            chiller::bench::kNoSimulatorFlags));
}
