#include "bench/bench_sweep.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

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
  } else if (spec.load_model != "closed") {
    out += " " + spec.load_model;
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
  executor_.set_mem_budget_bytes(flags.MemBudgetBytes());
  executor_.set_trace_out(flags.trace_out);
}

std::vector<runner::ScenarioResult> Sweep::Run(
    const std::vector<runner::ScenarioSpec>& specs) {
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

}  // namespace chiller::bench
