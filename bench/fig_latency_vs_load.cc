// Latency under offered load: the open-loop companion to Figure 9.
//
// The paper evaluates closed-loop (a fixed number of open transactions per
// warehouse), which can never show a latency-vs-throughput knee: latency is
// a dependent variable of the concurrency knob. This bench drives the same
// TPC-C mix through the open load model (cc/load_model.h) instead:
//
//   stage 1  closed-loop capacity probe per protocol (the Figure 9 point at
//            the configured concurrency) — the saturation throughput C.
//   stage 2  open-loop sweep at offered loads {0.2..1.1} x C with a bounded
//            per-engine admission queue: p99 execution latency, p99
//            queueing delay, and shed rate per point.
//
// The interesting output is the *knee*: the highest offered load a protocol
// sustains with an empty-enough queue (nothing shed, and p99 queueing delay
// below p99 execution latency). Past the knee the admission queue — not the
// engines — dominates end-to-end latency. Chiller's two-region execution
// holds locks on contended records for a fraction of the transaction, so
// its knee sits at a higher offered load than 2PL's and OCC's.
#include <cstdio>
#include <vector>

#include "bench/bench_flags.h"
#include "bench/bench_report.h"
#include "bench/bench_sweep.h"

namespace chiller::bench {
namespace {

const std::vector<double> kFractions = {0.2, 0.4, 0.6, 0.8, 0.9, 1.0, 1.1};

void Main(const BenchFlags& flags) {
  KneeSweep sweep(flags, "latency");
  const std::vector<std::string> protocols = {"2pl", "occ", "chiller"};

  std::printf(
      "Latency under offered load — full TPC-C, %u nodes x %u engines\n"
      "(1 warehouse each), open-loop %s arrivals, %u service slots and a\n"
      "%u-deep admission queue per engine; offered load swept as a fraction\n"
      "of each protocol's closed-loop capacity.\n\n",
      flags.nodes, flags.engines, flags.arrival.c_str(), flags.concurrency,
      flags.queue_cap);

  BenchReport report("latency");
  report.SetConfig("nodes", flags.nodes);
  report.SetConfig("engines_per_node", flags.engines);
  report.SetConfig("warehouses", flags.nodes * flags.engines);
  report.SetConfig("concurrency", flags.concurrency);
  report.SetConfig("arrival", flags.arrival);
  report.SetConfig("queue_cap", flags.queue_cap);
  report.SetConfig("warmup_ms", flags.warmup_ms);
  report.SetConfig("duration_ms", flags.duration_ms);
  report.SetConfig("seed", flags.seed);

  // The probes reuse the exact Figure 9 configuration, so "1.0 x
  // capacity" means "the throughput the closed loop reports at this
  // concurrency".
  std::vector<runner::ScenarioSpec> probes;
  for (const std::string& proto : protocols) {
    runner::ScenarioSpec spec = flags.BaseSpec();
    spec.label = proto;
    spec.workload = "tpcc";
    spec.protocol = proto;
    probes.push_back(std::move(spec));
  }
  const KneeResult knee = sweep.Run(probes, kFractions, {"fifo"});

  Json capacity_json = Json::MakeObject();
  Json knee_json = Json::MakeObject();
  for (size_t p = 0; p < protocols.size(); ++p) {
    capacity_json[protocols[p]] = knee.capacity[p];
    knee_json[protocols[p]] = knee.knee[p][0];
  }
  report.SetConfig("capacity_tps", capacity_json);
  report.SetConfig("knee_tps", knee_json);
  for (size_t i = 0; i < knee.runs.size(); ++i) {
    const runner::ScenarioResult& r = knee.runs[i];
    Json params = Json::MakeObject();
    params["offered_tps"] = r.spec.offered_tps;
    params["load_fraction"] = kFractions[i % kFractions.size()];
    report.AddRun(r.spec.protocol, std::move(params), r.stats);
  }

  auto table = [&](const char* title, const char* fmt, auto field) {
    std::printf("%s", title);
    PrintHeader("offered / capacity", kFractions);
    for (size_t p = 0; p < protocols.size(); ++p) {
      std::vector<double> row;
      for (const LoadPoint& pt : knee.points[p][0]) row.push_back(field(pt));
      PrintRow(protocols[p], row, fmt);
    }
  };
  table("(a) Delivered throughput (M txns/sec)\n", "%8.3f",
        [](const LoadPoint& pt) { return pt.throughput_tps / 1e6; });
  table("\n(b) p99 execution latency (us)\n", "%8.1f",
        [](const LoadPoint& pt) { return pt.exec_p99_ns / 1e3; });
  table("\n(c) p99 queueing delay (us)\n", "%8.1f",
        [](const LoadPoint& pt) { return pt.queue_p99_ns / 1e3; });
  table("\n(d) Shed rate at the admission queue\n", "%8.3f",
        [](const LoadPoint& pt) { return pt.shed_rate; });

  std::printf("\nknee (highest sustained offered load, M txns/sec):\n");
  for (size_t p = 0; p < protocols.size(); ++p) {
    std::printf("  %-10s %8.3f\n", protocols[p].c_str(), knee.knee[p][0] / 1e6);
  }

  std::printf("\n");
  sweep.PrintWallClock();

  report.MaybeWrite(flags.emit_json, flags.JsonPathFor("latency"));
}

}  // namespace
}  // namespace chiller::bench

int main(int argc, char** argv) {
  chiller::bench::BenchFlags defaults;
  // A smaller cluster than Figure 9's 80 warehouses: the latency sweep runs
  // 24 scenarios and the knee shape is topology-independent.
  defaults.nodes = 4;
  defaults.engines = 2;
  // The load-model axis IS this bench's sweep: stage 1 is always the
  // closed-loop capacity probe and stage 2 always the open-loop fraction
  // grid, over every protocol on TPC-C (no Zipf theta), under fifo
  // admission (fig_scheduling is the scheduler bench). --arrival and
  // --queue-cap still shape the open loop.
  chiller::bench::Main(chiller::bench::ParseBenchFlagsOrExit(
      argc, argv, "latency", defaults,
      {"protocol", "theta", "load-model", "offered-tps", "scheduler"}));
}
