// Figure 9: standard full TPC-C mix on 8 nodes, one warehouse per engine,
// identical by-warehouse partitioning for all systems; sweep the number of
// concurrent transactions per warehouse.
//
//  (a) throughput — paper shape: 2PL == Chiller at 1 open txn; only
//      Chiller rises with concurrency (peaking around 4, then CPU-bound);
//      OCC is the worst throughout.
//  (b) abort rate — 2PL and OCC climb steeply; Chiller stays low.
//  (c) 2PL per-class abort rates — Payment approaches 100% (starved by
//      NewOrder's shared warehouse locks), NewOrder moderate, StockLevel
//      lowest.
#include <cstdio>

#include "bench/bench_flags.h"
#include "bench/bench_report.h"
#include "bench/bench_sweep.h"
#include "workload/tpcc/tpcc_workload.h"

namespace chiller::bench {
namespace {

namespace tpcc = workload::tpcc;

struct Point {
  double throughput_m;  // M txns/sec
  double abort_rate;
  double abort_new_order;
  double abort_payment;
  double abort_stock_level;
};

void Main(const BenchFlags& flags) {
  std::printf(
      "Figure 9 — full TPC-C, %u nodes x %u engines (1 warehouse each),\n"
      "same by-warehouse partitioning for every protocol; sweeping\n"
      "concurrent transactions per warehouse.\n\n",
      flags.nodes, flags.engines);

  BenchReport report("fig9");
  report.SetConfig("nodes", flags.nodes);
  report.SetConfig("engines_per_node", flags.engines);
  report.SetConfig("warehouses", flags.nodes * flags.engines);
  report.SetConfig("warmup_ms", flags.warmup_ms);
  report.SetConfig("duration_ms", flags.duration_ms);
  report.SetConfig("seed", flags.seed);

  const std::vector<double> conc = {1, 2, 3, 4, 5, 6, 7, 8};
  const std::vector<std::string> protocols = {"2pl", "occ", "chiller"};

  std::vector<runner::ScenarioSpec> specs;
  for (double cd : conc) {
    const uint32_t c = static_cast<uint32_t>(cd);
    for (const std::string& proto : protocols) {
      runner::ScenarioSpec spec;
      spec.label = proto;
      spec.workload = "tpcc";
      spec.protocol = proto;
      spec.nodes = flags.nodes;
      spec.engines_per_node = flags.engines;
      spec.concurrency = c;
      spec.seed = flags.seed + c;
      spec.warmup = static_cast<SimTime>(flags.warmup_ms * kMillisecond);
      spec.measure = static_cast<SimTime>(flags.duration_ms * kMillisecond);
      ApplyLoadModelFlags(flags, &spec);
      specs.push_back(std::move(spec));
    }
  }

  Sweep sweep(flags, "fig9");
  const auto results = sweep.Run(specs);

  std::vector<Point> twopl, occ, chiller;
  for (const runner::ScenarioResult& r : results) {
    const cc::RunStats& stats = r.stats;

    Json params = Json::MakeObject();
    params["concurrency"] = r.spec.concurrency;
    report.AddRun(r.spec.protocol, std::move(params), stats);

    Point p;
    p.throughput_m = stats.Throughput() / 1e6;
    p.abort_rate = stats.AbortRate();
    p.abort_new_order = stats.ClassAbortRate(tpcc::kNewOrderTxn);
    p.abort_payment = stats.ClassAbortRate(tpcc::kPaymentTxn);
    p.abort_stock_level = stats.ClassAbortRate(tpcc::kStockLevelTxn);
    if (r.spec.protocol == "2pl") twopl.push_back(p);
    if (r.spec.protocol == "occ") occ.push_back(p);
    if (r.spec.protocol == "chiller") chiller.push_back(p);
  }

  auto series = [&](const std::vector<Point>& pts, auto field) {
    std::vector<double> out;
    for (const Point& p : pts) out.push_back(field(p));
    return out;
  };

  std::printf("(a) Throughput (M txns/sec)\n");
  PrintHeader("# conc txns/warehouse", conc);
  PrintRow("2PL", series(twopl, [](auto& p) { return p.throughput_m; }),
           "%8.3f");
  PrintRow("OCC", series(occ, [](auto& p) { return p.throughput_m; }),
           "%8.3f");
  PrintRow("Chiller",
           series(chiller, [](auto& p) { return p.throughput_m; }), "%8.3f");

  std::printf("\n(b) Abort rate\n");
  PrintHeader("# conc txns/warehouse", conc);
  PrintRow("2PL", series(twopl, [](auto& p) { return p.abort_rate; }),
           "%8.3f");
  PrintRow("OCC", series(occ, [](auto& p) { return p.abort_rate; }), "%8.3f");
  PrintRow("Chiller", series(chiller, [](auto& p) { return p.abort_rate; }),
           "%8.3f");

  std::printf("\n(c) Abort rate breakdown for 2PL\n");
  PrintHeader("# conc txns/warehouse", conc);
  PrintRow("New-order",
           series(twopl, [](auto& p) { return p.abort_new_order; }), "%8.3f");
  PrintRow("Payment", series(twopl, [](auto& p) { return p.abort_payment; }),
           "%8.3f");
  PrintRow("Stock-level",
           series(twopl, [](auto& p) { return p.abort_stock_level; }),
           "%8.3f");

  std::printf("\n");
  sweep.PrintWallClock();

  report.MaybeWrite(flags.emit_json, flags.JsonPathFor("fig9"));
}

}  // namespace
}  // namespace chiller::bench

int main(int argc, char** argv) {
  chiller::bench::Main(
      chiller::bench::ParseBenchFlagsOrExit(argc, argv, "fig9"));
}
