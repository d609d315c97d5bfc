// Contention-aware admission scheduling under offered load.
//
// The scheduler stage (schedule/scheduler.h) sits between arrival and
// engine admission: it classifies every transaction by its hottest record
// and decides which engine runs it. This bench measures what that buys on
// the synthetic YCSB-style workload, where the Zipf theta knob dials the
// conflict rate directly:
//
//   stage 1  closed-loop capacity probe per (protocol, theta) — the
//            saturation throughput C. Probes run the default fifo
//            scheduler, so the offered-load grid is identical for every
//            scheduler (the comparison is apples-to-apples by construction).
//   stage 2  open-loop sweep of offered load {0.2..1.1} x C for each
//            scheduler: p99 execution latency, p99 queueing delay, shed
//            rate per point.
//
// The headline number is the *knee* per (protocol, theta, scheduler): the
// highest offered load sustained with nothing shed and p99 queueing delay
// below p99 execution latency (same definition as the latency bench). Under
// fifo, skewed arrivals land on whatever engine they arrived at, conflict,
// and burn service slots on aborted attempts and backoff; hash-affinity
// routes each conflict class to its owner engine and never runs two
// transactions of one hot class concurrently, so the same engines sustain a
// higher offered load before the admission queue takes over.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_flags.h"
#include "bench/bench_report.h"
#include "bench/bench_sweep.h"

namespace chiller::bench {
namespace {

constexpr double kThetas[] = {0.7, 0.99};
const std::vector<double> kFractions = {0.2, 0.4, 0.5,  0.6, 0.65, 0.7, 0.75,
                                        0.8, 0.85, 0.9, 0.95, 1.0, 1.1};
const std::vector<std::string> kSchedulers = {"fifo", "hash-affinity"};

runner::ScenarioSpec ProbeSpec(const BenchFlags& flags,
                               const std::string& proto, double theta) {
  runner::ScenarioSpec spec = flags.BaseSpec();
  spec.label = proto;
  spec.workload = "ycsb";
  spec.protocol = proto;
  spec.options.Set("theta", theta);
  // Short write-only transactions put the whole run in the contention
  // regime the scheduler targets: every hot access takes an exclusive
  // lock (reads would share theirs and dilute the conflict rate), and a
  // 2-op footprint keeps the serialized conflict-class residence — the
  // price hash-affinity pays for suppressing abort storms — small next to
  // what those storms cost fifo.
  spec.options.Set("ops_per_txn", 2);
  spec.options.Set("read_ratio", 0.0);
  spec.options.Set("hot_keys_per_partition", 2);
  spec.options.Set("distributed_ratio", 0.1);
  return spec;
}

std::string ThetaKey(double theta) {
  char key[16];
  std::snprintf(key, sizeof(key), "%.2f", theta);
  return key;
}

void Main(const BenchFlags& flags) {
  KneeSweep sweep(flags, "scheduling");
  const std::vector<std::string> protocols = {"2pl", "occ", "chiller"};

  std::printf(
      "Admission scheduling under offered load — YCSB, %u nodes x %u "
      "engines,\nopen-loop %s arrivals, %u service slots and a %u-deep "
      "admission queue\nper engine; offered load swept as a fraction of "
      "each (protocol, theta)\npair's closed-loop capacity, once per "
      "scheduler.\n\n",
      flags.nodes, flags.engines, flags.arrival.c_str(), flags.concurrency,
      flags.queue_cap);

  BenchReport report("scheduling");
  report.SetConfig("nodes", flags.nodes);
  report.SetConfig("engines_per_node", flags.engines);
  report.SetConfig("concurrency", flags.concurrency);
  report.SetConfig("arrival", flags.arrival);
  report.SetConfig("queue_cap", flags.queue_cap);
  report.SetConfig("warmup_ms", flags.warmup_ms);
  report.SetConfig("duration_ms", flags.duration_ms);
  report.SetConfig("seed", flags.seed);

  // One probe per (protocol, theta). Probes run under the default fifo
  // scheduler, so both schedulers' series share one offered-load grid.
  std::vector<runner::ScenarioSpec> probes;
  for (const std::string& proto : protocols) {
    for (double theta : kThetas) {
      probes.push_back(ProbeSpec(flags, proto, theta));
    }
  }
  const KneeResult knee = sweep.Run(probes, kFractions, kSchedulers);

  const size_t grid = std::size(kThetas);
  Json capacity_json = Json::MakeObject();
  Json knee_json = Json::MakeObject();
  for (size_t pt = 0; pt < probes.size(); ++pt) {
    const std::string& proto = protocols[pt / grid];
    const std::string theta_key = ThetaKey(kThetas[pt % grid]);
    capacity_json[proto][theta_key] = knee.capacity[pt];
    for (size_t s = 0; s < kSchedulers.size(); ++s) {
      knee_json[proto][theta_key][kSchedulers[s]] = knee.knee[pt][s];
    }
  }
  report.SetConfig("capacity_tps", capacity_json);
  report.SetConfig("knee_tps", knee_json);
  const size_t per_probe = kSchedulers.size() * kFractions.size();
  for (size_t i = 0; i < knee.runs.size(); ++i) {
    const runner::ScenarioResult& r = knee.runs[i];
    Json params = Json::MakeObject();
    params["theta"] = kThetas[i / per_probe % grid];
    params["scheduler"] = r.spec.scheduler;
    params["offered_tps"] = r.spec.offered_tps;
    params["load_fraction"] = kFractions[i % kFractions.size()];
    report.AddRun(r.spec.protocol, std::move(params), r.stats);
  }

  for (size_t pt = 0; pt < probes.size(); ++pt) {
    std::printf("%s theta=%.2f (capacity %.0f tps)\n",
                protocols[pt / grid].c_str(), kThetas[pt % grid],
                knee.capacity[pt]);
    auto table = [&](const char* title, const char* fmt, auto field) {
      std::printf("%s", title);
      PrintHeader("  offered / capacity", kFractions);
      for (size_t s = 0; s < kSchedulers.size(); ++s) {
        std::vector<double> row;
        for (const LoadPoint& p : knee.points[pt][s]) row.push_back(field(p));
        PrintRow("  " + kSchedulers[s], row, fmt);
      }
    };
    table("  shed rate:\n", "%8.3f",
          [](const LoadPoint& p) { return p.shed_rate; });
    table("  p99 queueing delay (us):\n", "%8.1f",
          [](const LoadPoint& p) { return p.queue_p99_ns / 1e3; });
    std::printf("  knee: fifo %.3f M tps, hash-affinity %.3f M tps\n\n",
                knee.knee[pt][0] / 1e6, knee.knee[pt][1] / 1e6);
  }

  sweep.PrintWallClock();

  report.MaybeWrite(flags.emit_json, flags.JsonPathFor("scheduling"));
}

}  // namespace
}  // namespace chiller::bench

int main(int argc, char** argv) {
  chiller::bench::BenchFlags defaults;
  // Eight single-engine nodes: enough fan-out that a skewed record's
  // writers mostly arrive on engines that do not own it (7/8 of steering
  // decisions move work), while the 6-probe + 156-scenario grid stays
  // tractable. The 10-deep admission queue is deliberately shallow — deep
  // queues let p99 queueing delay blow past p99 execution latency long
  // before anything is shed, hiding the capacity difference between the
  // schedulers behind a bound both fail the same way.
  defaults.nodes = 8;
  defaults.engines = 1;
  defaults.queue_cap = 10;
  defaults.warmup_ms = 2.0;
  defaults.duration_ms = 10.0;
  // The scheduler, load-model, protocol and theta axes ARE this bench's
  // sweep: stage 1 is always the closed-loop capacity probe and stage 2
  // always the open-loop scheduler grid. --arrival and --queue-cap still
  // shape the open loop.
  chiller::bench::Main(chiller::bench::ParseBenchFlagsOrExit(
      argc, argv, "scheduling", defaults,
      {"protocol", "theta", "load-model", "offered-tps", "scheduler"}));
}
