// Quickstart: declare two scenarios — the paper's Figure 5 mini-workload
// under plain 2PL+2PC ("2pl") and under Chiller two-region execution
// ("chiller"), both on the flight workload's Chiller layout — and run them
// through the scenario runner.
//
//   $ ./build/examples/quickstart
#include <cstdio>

#include "runner/sweep.h"

using namespace chiller;

int main() {
  // One spec per protocol: 3 nodes, one engine each, replication degree 2,
  // the flight-booking workload with 6 contended hot flights. Everything
  // else (schema, partitioner, data load, driver) is wired by the runner.
  std::vector<runner::ScenarioSpec> specs;
  for (const char* proto : {"2pl", "chiller"}) {
    runner::ScenarioSpec spec;
    spec.label = proto;
    spec.workload = "flight";
    spec.protocol = proto;
    spec.nodes = 3;
    spec.engines_per_node = 1;
    spec.concurrency = 4;
    spec.warmup = 2 * kMillisecond;
    spec.measure = 40 * kMillisecond;
    spec.options.Set("hot_flights", 6);
    specs.push_back(std::move(spec));
  }

  std::printf("Flight booking on 3 nodes, hot flights contended:\n\n");

  // The two simulated clusters are independent, so they can run on two
  // worker threads; results come back in spec order either way.
  runner::SweepExecutor executor(/*jobs=*/2);
  auto results = executor.Run(specs);
  for (const auto& r : results) {
    if (!r.ok()) {
      std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
      return 1;
    }
  }

  const char* names[] = {"plain 2PL + 2PC", "Chiller two-region"};
  for (size_t i = 0; i < results.size(); ++i) {
    const cc::RunStats& stats = results[i]->stats;
    std::printf("%-24s throughput=%7.1f K txns/s  abort-rate=%.3f  "
                "p99 latency=%.1f us\n",
                names[i], stats.Throughput() / 1000.0, stats.AbortRate(),
                stats.FindClass(0) == nullptr
                    ? 0.0
                    : stats.FindClass(0)->latency.Percentile(99) / 1000.0);
  }

  const cc::RunStats& plain = results[0]->stats;
  const cc::RunStats& chiller = results[1]->stats;
  std::printf("\nChiller speedup: %.2fx, abort reduction: %.1f%% -> %.1f%%\n",
              chiller.Throughput() / plain.Throughput(),
              100.0 * plain.AbortRate(), 100.0 * chiller.AbortRate());
  return 0;
}
