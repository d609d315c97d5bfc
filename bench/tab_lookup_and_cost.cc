// In-text results of Sections 4.4 and 7.2.2:
//  - lookup-table size: Schism stores every trace record; Chiller stores
//    hot records only (paper: Schism ~10x larger);
//  - graph size: n(n-1)/2 edges per transaction (Schism) vs n (Chiller);
//  - partitioning cost: graph construction + partitioning wall-clock
//    (paper: Schism up to 5x slower).
//
// The four trace sizes build independently across the --jobs pool. Note
// the build_ms columns measure host wall-clock inside each worker, so
// heavy parallelism can inflate them through CPU contention; sizes and
// entry counts are exact regardless.
#include <cstdio>

#include "bench/bench_flags.h"
#include "bench/bench_report.h"
#include "partition/chiller_partitioner.h"
#include "partition/schism.h"
#include "runner/sweep.h"
#include "workload/instacart.h"

namespace chiller::bench {
namespace {

namespace instacart = workload::instacart;

void Main(const BenchFlags& flags) {
  std::printf(
      "Sections 4.4 / 7.2.2 — lookup-table size, graph size, and\n"
      "partitioning cost: Schism vs Chiller on the Instacart-like "
      "workload.\n\n");

  BenchReport report("tab_lookup_and_cost");
  report.SetConfig("partitions", 8);
  report.SetConfig("tail_theta", flags.theta);

  instacart::InstacartWorkload::Options wopts;
  wopts.num_products = 30000;
  wopts.tail_theta = flags.theta;

  const uint32_t k = 8;
  const std::vector<size_t> trace_sizes = {5000, 10000, 20000, 40000};
  struct Built {
    partition::SchismPartitioner::Output schism;
    partition::ChillerPartitioner::Output chiller;
  };
  auto builds =
      runner::ParallelMap(flags.jobs, trace_sizes.size(), [&](size_t i) {
        const size_t trace_txns = trace_sizes[i];
        instacart::InstacartWorkload wl(wopts);
        Rng rng(trace_txns);
        auto traces = wl.GenerateTrace(trace_txns, &rng);
        Built b;
        b.schism = partition::SchismPartitioner::Build(traces, {.k = k});
        b.chiller = partition::ChillerPartitioner::Build(
            traces, {.k = k, .hot_threshold = 0.01});
        return b;
      });

  std::printf("%-10s %14s %14s %14s %14s\n", "trace", "schism-edges",
              "chiller-edges", "schism-ms", "chiller-ms");
  for (size_t i = 0; i < trace_sizes.size(); ++i) {
    const size_t trace_txns = trace_sizes[i];
    const auto& schism = builds[i].schism;
    const auto& chiller = builds[i].chiller;
    std::printf("%-10zu %14zu %14zu %14.1f %14.1f\n", trace_txns,
                schism.report.graph_edges, chiller.report.graph_edges,
                schism.report.build_micros / 1000.0,
                chiller.report.build_micros / 1000.0);

    Json row = Json::MakeObject();
    row["params"]["trace_txns"] = static_cast<uint64_t>(trace_txns);
    row["schism_graph_edges"] = static_cast<uint64_t>(schism.report.graph_edges);
    row["chiller_graph_edges"] =
        static_cast<uint64_t>(chiller.report.graph_edges);
    row["schism_build_ms"] = schism.report.build_micros / 1000.0;
    row["chiller_build_ms"] = chiller.report.build_micros / 1000.0;
    row["schism_lookup_entries"] =
        static_cast<uint64_t>(schism.report.lookup_entries);
    row["chiller_lookup_entries"] =
        static_cast<uint64_t>(chiller.report.lookup_entries);
    report.Add(std::move(row));
    if (trace_txns == 40000) {
      std::printf(
          "\nlookup table entries: schism=%zu chiller=%zu (ratio %.1fx, "
          "paper ~10x)\n",
          schism.report.lookup_entries, chiller.report.lookup_entries,
          static_cast<double>(schism.report.lookup_entries) /
              static_cast<double>(
                  std::max<size_t>(1, chiller.report.lookup_entries)));
      std::printf(
          "build time ratio (schism/chiller): %.1fx (paper: up to 5x)\n",
          static_cast<double>(schism.report.build_micros) /
              static_cast<double>(std::max<uint64_t>(
                  1, chiller.report.build_micros)));
      std::printf(
          "graph edge ratio (schism/chiller): %.1fx (n(n-1)/2 vs n per "
          "txn; ~4.5x at 10 items/basket)\n",
          static_cast<double>(schism.report.graph_edges) /
              static_cast<double>(
                  std::max<size_t>(1, chiller.report.graph_edges)));
    }
  }

  report.MaybeWrite(flags.emit_json,
                    flags.JsonPathFor("tab_lookup_and_cost"));
}

}  // namespace
}  // namespace chiller::bench

int main(int argc, char** argv) {
  chiller::bench::BenchFlags defaults;
  defaults.theta = 0.6;  // the Instacart catalog tail skew
  chiller::bench::Main(chiller::bench::ParseBenchFlagsOrExit(
      argc, argv, "tab_lookup_and_cost", defaults,
      chiller::bench::kNoSimulatorFlags));
}
