#include "bench/bench_sweep.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "cc/load_model.h"

namespace chiller::bench {
namespace {

/// One line per scenario for progress and error messages: protocol, label,
/// topology, concurrency, non-default admission, and workload options.
std::string Describe(const runner::ScenarioSpec& spec) {
  std::string out = spec.protocol;
  if (!spec.label.empty() && spec.label != spec.protocol) {
    out += " " + spec.label;
  }
  char buf[96];
  std::snprintf(buf, sizeof(buf), " %ux%u c=%u", spec.nodes,
                spec.engines_per_node, spec.concurrency);
  out += buf;
  if (spec.load_model == "open") {
    std::snprintf(buf, sizeof(buf), " open offered=%.0f", spec.offered_tps);
    out += buf;
  }
  if (spec.scheduler != "fifo") out += " " + spec.scheduler;
  const std::string options = spec.options.ToString();
  if (!options.empty()) out += " " + options;
  return out;
}

}  // namespace

Sweep::Sweep(const BenchFlags& flags, std::string bench_name)
    : executor_(flags.jobs),
      name_(std::move(bench_name)),
      shards_(flags.shards),
      start_(std::chrono::steady_clock::now()) {
  executor_.set_trace_out(flags.trace_out);
}

std::vector<runner::ScenarioResult> Sweep::Run(
    std::vector<runner::ScenarioSpec> specs) {
  size_t completed = 0;  // progress callbacks are serialized by the executor
  auto results = executor_.Run(
      specs, [&](size_t i, const StatusOr<runner::ScenarioResult>& r) {
        std::fprintf(stderr, "  [%s] scenario %zu (%s): %s (%zu/%zu)\n",
                     name_.c_str(), i, Describe(specs[i]).c_str(),
                     r.ok() ? "done" : r.status().ToString().c_str(),
                     ++completed, specs.size());
      });
  scenarios_ += specs.size();
  std::vector<runner::ScenarioResult> out;
  out.reserve(results.size());
  for (size_t i = 0; i < results.size(); ++i) {
    if (!results[i].ok()) {
      std::fprintf(stderr, "%s: scenario %zu (%s) failed: %s\n",
                   name_.c_str(), i, Describe(specs[i]).c_str(),
                   results[i].status().ToString().c_str());
      std::exit(1);
    }
    out.push_back(std::move(results[i]).value());
  }
  return out;
}

void Sweep::PrintWallClock() const {
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start_)
                             .count();
  std::printf(
      "sweep: %zu scenarios in %.1f s wall-clock (--jobs %u, --shards %u)\n",
      scenarios_, seconds, executor_.jobs(), shards_);
}

double Knee(const std::vector<LoadPoint>& ascending) {
  double knee = 0.0;
  for (const LoadPoint& p : ascending) {
    if (p.shed_rate == 0.0 && p.queue_p99_ns <= p.exec_p99_ns) {
      knee = p.offered_tps;
    }
  }
  return knee;
}

KneeSweep::KneeSweep(const BenchFlags& flags, std::string bench_name)
    : name_(std::move(bench_name)), sweep_(flags, name_) {
  // Flag parsing validated the closed model the bench refuses to change;
  // any positive offered load stands in for the probe-derived ones.
  runner::ScenarioSpec open = flags.BaseSpec();
  open.load_model = "open";
  open.offered_tps = 1.0;
  const Status st =
      cc::ValidateLoadModelParams(open.load_model, open.MakeLoadModelParams());
  if (!st.ok()) {
    std::fprintf(stderr, "%s: %s\n", name_.c_str(), st.message().c_str());
    std::exit(1);
  }
}

KneeResult KneeSweep::Run(const std::vector<runner::ScenarioSpec>& probes,
                          const std::vector<double>& fractions,
                          const std::vector<std::string>& schedulers) {
  KneeResult out;
  const auto probe_results = sweep_.Run(probes);
  for (size_t i = 0; i < probes.size(); ++i) {
    const double capacity = probe_results[i].stats.Throughput();
    if (capacity <= 0.0) {
      std::fprintf(stderr,
                   "%s: closed-loop capacity probe %zu (%s) committed "
                   "nothing (window too short?); cannot derive an "
                   "offered-load grid\n",
                   name_.c_str(), i, Describe(probes[i]).c_str());
      std::exit(1);
    }
    std::fprintf(stderr, "  [%s] %s closed-loop capacity %.0f tps\n",
                 name_.c_str(), Describe(probes[i]).c_str(), capacity);
    out.capacity.push_back(capacity);
  }

  std::vector<runner::ScenarioSpec> specs;
  for (size_t i = 0; i < probes.size(); ++i) {
    for (const std::string& scheduler : schedulers) {
      for (double f : fractions) {
        runner::ScenarioSpec spec = probes[i];
        spec.load_model = "open";
        spec.offered_tps = out.capacity[i] * f;
        spec.scheduler = scheduler;
        specs.push_back(std::move(spec));
      }
    }
  }
  out.runs = sweep_.Run(std::move(specs));

  const auto p99 = [](const Histogram& h) {
    return h.count() == 0 ? 0.0 : static_cast<double>(h.Percentile(99));
  };
  auto run = out.runs.begin();
  for (size_t i = 0; i < probes.size(); ++i) {
    auto& series = out.points.emplace_back();
    auto& knees = out.knee.emplace_back();
    for (size_t s = 0; s < schedulers.size(); ++s) {
      auto& points = series.emplace_back();
      for (size_t f = 0; f < fractions.size(); ++f, ++run) {
        const cc::RunStats& stats = run->stats;
        Histogram latency;
        for (const auto& cls : stats.classes) latency.Merge(cls.latency);
        points.push_back({.offered_tps = run->spec.offered_tps,
                          .throughput_tps = stats.Throughput(),
                          .exec_p99_ns = p99(latency),
                          .queue_p99_ns = p99(stats.queue_delay),
                          .shed_rate = stats.ShedRate()});
      }
      knees.push_back(Knee(points));
    }
  }
  return out;
}

}  // namespace chiller::bench
