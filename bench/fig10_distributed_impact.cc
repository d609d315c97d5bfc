// Figure 10: impact of the fraction of distributed transactions.
// TPC-C restricted to NewOrder + Payment at 50/50; the probability that a
// transaction crosses warehouses is swept from 0 to 100%.
//
// Paper expectation: every baseline degrades steeply (especially with 5
// open transactions, where longer lock spans amplify existing conflicts);
// Chiller is highest and degrades < 20% end to end.
#include <cstdio>

#include "bench/bench_flags.h"
#include "bench/bench_report.h"
#include "bench/bench_sweep.h"

namespace chiller::bench {
namespace {

struct Series {
  const char* proto;
  uint32_t concurrency;
};

void Main(const BenchFlags& flags) {
  std::printf(
      "Figure 10 — throughput (M txns/sec) vs %% distributed transactions\n"
      "(TPC-C NewOrder+Payment 50/50, %u warehouses).\n"
      "paper shape: Chiller best, degrades < 20%%; 2PL/OCC with 5 open\n"
      "txns collapse as distribution grows.\n\n",
      flags.nodes * flags.engines);

  BenchReport report("fig10");
  report.SetConfig("nodes", flags.nodes);
  report.SetConfig("engines_per_node", flags.engines);
  report.SetConfig("warmup_ms", flags.warmup_ms);
  report.SetConfig("duration_ms", flags.duration_ms);
  report.SetConfig("seed", flags.seed);

  const std::vector<double> pcts = {0, 20, 40, 60, 80, 100};
  const std::vector<Series> series = {{"2pl", 1},
                                      {"occ", 1},
                                      {"2pl", 5},
                                      {"occ", 5},
                                      {"chiller", 5}};

  std::vector<runner::ScenarioSpec> specs;
  for (double pct : pcts) {
    for (const Series& s : series) {
      runner::ScenarioSpec spec;
      spec.workload = "tpcc";
      spec.protocol = s.proto;
      spec.nodes = flags.nodes;
      spec.engines_per_node = flags.engines;
      spec.concurrency = s.concurrency;
      spec.seed = flags.seed + static_cast<uint64_t>(pct);
      spec.warmup = static_cast<SimTime>(flags.warmup_ms * kMillisecond);
      spec.measure = static_cast<SimTime>(flags.duration_ms * kMillisecond);
      ApplyLoadModelFlags(flags, &spec);
      spec.options.Set("pct_new_order", 50);
      spec.options.Set("pct_payment", 50);
      spec.options.Set("pct_order_status", 0);
      spec.options.Set("pct_delivery", 0);
      spec.options.Set("pct_stock_level", 0);
      spec.options.Set("remote_new_order_prob", pct / 100.0);
      spec.options.Set("remote_payment_prob", pct / 100.0);
      specs.push_back(std::move(spec));
    }
  }

  Sweep sweep(flags, "fig10");
  const auto results = sweep.Run(specs);

  // One throughput series per (protocol, concurrency) pair, in pct order.
  std::vector<std::vector<double>> tputs(series.size());
  for (size_t i = 0; i < results.size(); ++i) {
    const runner::ScenarioResult& r = results[i];
    const double pct = pcts[i / series.size()];

    Json params = Json::MakeObject();
    params["pct_distributed"] = pct;
    params["concurrency"] = r.spec.concurrency;
    report.AddRun(r.spec.protocol, std::move(params), r.stats);
    tputs[i % series.size()].push_back(r.stats.Throughput() / 1e6);
  }

  PrintHeader("% distributed txns", pcts);
  PrintRow("2PL (1 txn)", tputs[0], "%8.3f");
  PrintRow("OCC (1 txn)", tputs[1], "%8.3f");
  PrintRow("2PL (5 txns)", tputs[2], "%8.3f");
  PrintRow("OCC (5 txns)", tputs[3], "%8.3f");
  PrintRow("Chiller", tputs[4], "%8.3f");

  const std::vector<double>& chiller5 = tputs[4];
  std::printf("\nChiller degradation 0%% -> 100%%: %.1f%% (paper: <20%%)\n",
              100.0 * (1.0 - chiller5.back() / chiller5.front()));
  std::printf("\n");
  sweep.PrintWallClock();

  report.MaybeWrite(flags.emit_json, flags.JsonPathFor("fig10"));
}

}  // namespace
}  // namespace chiller::bench

int main(int argc, char** argv) {
  chiller::bench::BenchFlags defaults;
  defaults.duration_ms = 12.0;
  chiller::bench::Main(
      chiller::bench::ParseBenchFlagsOrExit(argc, argv, "fig10", defaults));
}
