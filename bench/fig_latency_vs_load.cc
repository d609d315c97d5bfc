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

constexpr double kFractions[] = {0.2, 0.4, 0.6, 0.8, 0.9, 1.0, 1.1};

struct Point {
  double offered_tps;
  double fraction;
  double throughput_tps;
  double exec_p99_ns;
  double queue_p99_ns;
  double shed_rate;
};

runner::ScenarioSpec BaseSpec(const BenchFlags& flags,
                              const std::string& proto) {
  runner::ScenarioSpec spec;
  spec.label = proto;
  spec.workload = "tpcc";
  spec.protocol = proto;
  spec.nodes = flags.nodes;
  spec.engines_per_node = flags.engines;
  spec.concurrency = flags.concurrency;
  spec.seed = flags.seed;
  spec.warmup = static_cast<SimTime>(flags.warmup_ms * kMillisecond);
  spec.measure = static_cast<SimTime>(flags.duration_ms * kMillisecond);
  return spec;
}

void Main(const BenchFlags& flags) {
  // The load-model axis IS this bench's sweep: stage 1 is always the
  // closed-loop capacity probe and stage 2 always the open-loop fraction
  // grid. Refuse the shared flags that would otherwise be silently
  // ignored; --arrival and --queue-cap still shape the open loop.
  if (flags.load_model != "closed" || flags.offered_tps != 0.0 ||
      flags.batch_size != BenchFlags{}.batch_size) {
    std::fprintf(stderr,
                 "latency: this bench sweeps the load model itself — "
                 "--load-model, --offered-tps, and --batch-size are fixed "
                 "by the sweep (use --arrival / --queue-cap / "
                 "--concurrency to shape it)\n");
    std::exit(1);
  }
  // Shared flag parsing validated against the default closed model; check
  // the open-loop knobs stage 2 will actually use before paying for the
  // stage-1 capacity probes (the offered rate is derived later, so any
  // positive placeholder validates the rest).
  {
    runner::ScenarioSpec probe;
    ApplyLoadModelFlags(flags, &probe);
    probe.concurrency = flags.concurrency;
    probe.load_model = "open";
    probe.offered_tps = 1.0;
    const Status st = cc::ValidateLoadModelParams(
        probe.load_model, probe.MakeLoadModelParams());
    if (!st.ok()) {
      std::fprintf(stderr, "latency: %s\n", st.message().c_str());
      std::exit(1);
    }
  }

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

  Sweep sweep(flags, "latency");

  // Stage 1: closed-loop capacity per protocol. The probe reuses the exact
  // Figure 9 configuration, so "1.0 x capacity" means "the throughput the
  // closed loop reports at this concurrency".
  std::vector<runner::ScenarioSpec> probes;
  for (const std::string& proto : protocols) probes.push_back(BaseSpec(flags, proto));
  const auto probe_results = sweep.Run(probes);

  std::vector<double> capacity(protocols.size(), 0.0);
  Json capacity_json = Json::MakeObject();
  for (size_t p = 0; p < protocols.size(); ++p) {
    capacity[p] = probe_results[p].stats.Throughput();
    if (capacity[p] <= 0.0) {
      std::fprintf(stderr,
                   "latency: %s closed-loop capacity probe committed "
                   "nothing (window too short?); cannot derive an "
                   "offered-load grid\n",
                   protocols[p].c_str());
      std::exit(1);
    }
    capacity_json[protocols[p]] = capacity[p];
    std::fprintf(stderr, "  [latency] %s closed-loop capacity %.0f tps\n",
                 protocols[p].c_str(), capacity[p]);
  }
  report.SetConfig("capacity_tps", capacity_json);

  // Stage 2: the open-loop grid. Specs are a pure function of the (equally
  // deterministic) stage-1 results, so --jobs N stays byte-identical.
  std::vector<runner::ScenarioSpec> specs;
  for (size_t p = 0; p < protocols.size(); ++p) {
    for (double f : kFractions) {
      runner::ScenarioSpec spec = BaseSpec(flags, protocols[p]);
      spec.load_model = "open";
      spec.offered_tps = capacity[p] * f;
      spec.arrival = flags.arrival;
      spec.queue_cap = flags.queue_cap;
      specs.push_back(std::move(spec));
    }
  }
  const auto results = sweep.Run(specs);

  std::vector<std::vector<Point>> series(protocols.size());
  for (size_t i = 0; i < results.size(); ++i) {
    const runner::ScenarioResult& r = results[i];
    const cc::RunStats& stats = r.stats;
    const size_t p = i / std::size(kFractions);
    const double fraction = kFractions[i % std::size(kFractions)];

    Json params = Json::MakeObject();
    params["offered_tps"] = r.spec.offered_tps;
    params["load_fraction"] = fraction;
    report.AddRun(r.spec.protocol, std::move(params), stats);

    Histogram latency;
    for (const auto& cls : stats.classes) latency.Merge(cls.latency);
    Point pt;
    pt.offered_tps = r.spec.offered_tps;
    pt.fraction = fraction;
    pt.throughput_tps = stats.Throughput();
    pt.exec_p99_ns =
        latency.count() == 0 ? 0.0
                             : static_cast<double>(latency.Percentile(99));
    pt.queue_p99_ns = stats.queue_delay.count() == 0
                          ? 0.0
                          : static_cast<double>(
                                stats.queue_delay.Percentile(99));
    pt.shed_rate = stats.ShedRate();
    series[p].push_back(pt);
  }

  // The knee: the highest offered load still served without queue-dominated
  // latency (nothing shed, p99 wait below p99 service). Points are swept in
  // ascending fraction order, so the last sustained point is the knee.
  Json knee_json = Json::MakeObject();
  std::vector<double> knee(protocols.size(), 0.0);
  for (size_t p = 0; p < protocols.size(); ++p) {
    for (const Point& pt : series[p]) {
      const bool sustained =
          pt.shed_rate == 0.0 && pt.queue_p99_ns <= pt.exec_p99_ns;
      if (sustained) knee[p] = pt.offered_tps;
    }
    knee_json[protocols[p]] = knee[p];
  }
  report.SetConfig("knee_tps", knee_json);

  std::vector<double> columns(std::begin(kFractions), std::end(kFractions));
  auto row = [&](size_t p, auto field) {
    std::vector<double> out;
    for (const Point& pt : series[p]) out.push_back(field(pt));
    return out;
  };
  std::printf("(a) Delivered throughput (M txns/sec)\n");
  PrintHeader("offered / capacity", columns);
  for (size_t p = 0; p < protocols.size(); ++p) {
    PrintRow(protocols[p],
             row(p, [](const Point& pt) { return pt.throughput_tps / 1e6; }),
             "%8.3f");
  }
  std::printf("\n(b) p99 execution latency (us)\n");
  PrintHeader("offered / capacity", columns);
  for (size_t p = 0; p < protocols.size(); ++p) {
    PrintRow(protocols[p],
             row(p, [](const Point& pt) { return pt.exec_p99_ns / 1e3; }),
             "%8.1f");
  }
  std::printf("\n(c) p99 queueing delay (us)\n");
  PrintHeader("offered / capacity", columns);
  for (size_t p = 0; p < protocols.size(); ++p) {
    PrintRow(protocols[p],
             row(p, [](const Point& pt) { return pt.queue_p99_ns / 1e3; }),
             "%8.1f");
  }
  std::printf("\n(d) Shed rate at the admission queue\n");
  PrintHeader("offered / capacity", columns);
  for (size_t p = 0; p < protocols.size(); ++p) {
    PrintRow(protocols[p],
             row(p, [](const Point& pt) { return pt.shed_rate; }), "%8.3f");
  }

  std::printf("\nknee (highest sustained offered load, M txns/sec):\n");
  for (size_t p = 0; p < protocols.size(); ++p) {
    std::printf("  %-10s %8.3f\n", protocols[p].c_str(), knee[p] / 1e6);
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
  chiller::bench::Main(chiller::bench::ParseBenchFlagsOrExit(
      argc, argv, "latency", defaults));
}
