// Runs the full contention-centric partitioning pipeline (Section 4) on
// the Instacart-like grocery workload and compares the resulting layout
// against Schism and hashing, using the shared layout builder that the
// scenario runner's instacart workload also uses.
//
//   $ ./build/examples/instacart_partitioning
#include <cstdio>

#include "partition/metrics.h"
#include "workload/instacart.h"

using namespace chiller;
namespace instacart = workload::instacart;

int main() {
  instacart::InstacartWorkload::Options wopts;
  wopts.num_products = 20000;
  instacart::InstacartWorkload workload(wopts);

  // 1. Capture a workload trace and build all three layouts for 8
  //    partitions (the sampling statistics service + Section 4 pipeline;
  //    the same call backs every "layout" option of the runner registry's
  //    instacart workload).
  const uint32_t k = 8;
  auto layouts = instacart::BuildInstacartLayouts(&workload, k,
                                                  /*trace_txns=*/10000,
                                                  /*seed=*/7);

  // 2. Contention likelihoods (Section 4.1).
  auto pcs = layouts.stats.ContentionLikelihoods(/*lock_window_txns=*/16.0);
  std::printf("hottest records (Poisson conflict model):\n");
  for (int i = 0; i < 5; ++i) {
    std::printf("  product %-8llu Pc = %.3f\n",
                static_cast<unsigned long long>(pcs[i].first.key),
                pcs[i].second);
  }

  // 3. Compare: the objective each scheme actually optimizes, evaluated on
  //    a fresh sample from the same distribution.
  Rng eval_rng(8);
  auto eval = workload.GenerateTrace(10000, &eval_rng);
  std::printf("\n%-10s %16s %18s %14s %12s\n", "scheme", "distributed-ratio",
              "residual-contention", "lookup-entries", "graph-edges");
  auto report = [&](const char* name, const partition::RecordPartitioner& p,
                    size_t entries, size_t edges) {
    const double residual =
        partition::ResidualContention(eval, {&p}, layouts.stats, 16.0)[0];
    std::printf("%-10s %16.3f %18.1f %14zu %12zu\n", name,
                partition::DistributedRatio(eval, p), residual, entries,
                edges);
  };
  report("hash", *layouts.hash_base, 0, 0);
  report("schism", *layouts.schism_out.partitioner,
         layouts.schism_out.report.lookup_entries,
         layouts.schism_out.report.graph_edges);
  report("chiller", *layouts.chiller_out.partitioner,
         layouts.chiller_out.report.lookup_entries,
         layouts.chiller_out.report.graph_edges);

  std::printf("\nchiller hot lookup entries: %zu of %zu records seen "
              "(Section 4.4 optimization)\n",
              layouts.chiller_out.report.hot_entries,
              layouts.schism_out.report.lookup_entries);
  std::printf("note: chiller accepts MORE distributed transactions yet has "
              "far LESS residual contention —\nthe paper's thesis in one "
              "table.\n");
  return 0;
}
