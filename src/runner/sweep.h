// Parallel sweep execution over independent scenarios.
//
// Every scenario owns a private sim::Simulator (inside its Cluster), so a
// grid of (protocol, config) points is embarrassingly parallel: the sweep
// fans specs across a std::thread pool and merges results back in spec
// order. Determinism is preserved by construction — each scenario is a
// pure function of its spec, and nothing is shared between workers — so
// --jobs N produces byte-identical per-point results to --jobs 1, in
// roughly 1/N the wall-clock.
#ifndef CHILLER_RUNNER_SWEEP_H_
#define CHILLER_RUNNER_SWEEP_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <functional>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "runner/runner.h"
#include "runner/scenario.h"

namespace chiller::runner {

/// 0 = one job per hardware thread; otherwise the value itself.
uint32_t ResolveJobs(uint32_t jobs);

/// Runs fn(0), ..., fn(n-1) on up to `jobs` worker threads and returns the
/// results indexed by input — the order never depends on scheduling. The
/// analysis benches (layout builds, metric evaluation) sweep through this
/// directly; SweepExecutor uses it for simulator scenarios. `fn` must be
/// safe to call concurrently from multiple threads.
template <typename Fn>
auto ParallelMap(uint32_t jobs, size_t n, Fn&& fn)
    -> std::vector<std::invoke_result_t<Fn&, size_t>> {
  using R = std::invoke_result_t<Fn&, size_t>;
  static_assert(!std::is_same_v<R, bool>,
                "vector<bool> packs bits: concurrent writes to results[i] "
                "would race. Return a struct or int instead.");
  std::vector<R> results(n);
  const uint32_t workers =
      static_cast<uint32_t>(std::min<size_t>(ResolveJobs(jobs), n));
  if (workers <= 1) {
    for (size_t i = 0; i < n; ++i) results[i] = fn(i);
    return results;
  }
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (uint32_t w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        results[i] = fn(i);
      }
    });
  }
  for (std::thread& t : pool) t.join();
  return results;
}

class SweepExecutor {
 public:
  /// `jobs`: worker threads; 0 = one per hardware thread.
  explicit SweepExecutor(uint32_t jobs = 1) : jobs_(ResolveJobs(jobs)) {}

  uint32_t jobs() const { return jobs_; }

  /// When set, every completed traced scenario's spans are appended to
  /// this Chrome trace-event file (one "process" per node per scenario,
  /// pids striped in spec order). Cumulative across Run calls on the same
  /// executor — each call rewrites the file with everything gathered so
  /// far, so a bench that sweeps figure-by-figure still emits one trace.
  /// Scenarios run with trace_sample_every == 0 contribute nothing.
  void set_trace_out(std::string path) { trace_out_ = std::move(path); }
  const std::string& trace_out() const { return trace_out_; }

  /// Called after each scenario completes (any thread, serialized by the
  /// executor): the spec index and its result. Completion order follows
  /// scheduling; the returned vector always follows spec order.
  using ProgressFn = std::function<void(size_t, const StatusOr<ScenarioResult>&)>;

  /// Runs every spec through ScenarioRunner::Run. Results are merged in
  /// spec order; a failed spec carries its Status without aborting the
  /// rest of the sweep.
  std::vector<StatusOr<ScenarioResult>> Run(
      const std::vector<ScenarioSpec>& specs,
      const ProgressFn& progress = nullptr) const;

  /// Worker threads actually used for `specs`: `jobs`, scaled down when the
  /// specs themselves run sharded simulators (each scenario at shards = S
  /// occupies S cores, so jobs x S would oversubscribe the machine; S is
  /// the shard count the simulator really runs, at most one per node). At
  /// least 1; scheduling-only — per-spec results are identical either way.
  uint32_t EffectiveJobs(const std::vector<ScenarioSpec>& specs) const;

 private:
  uint32_t jobs_;
  std::string trace_out_;
  // Cumulative trace state across Run calls (traces merge in spec order
  // on the bench thread after the parallel barrier, so no lock is needed).
  mutable std::string trace_events_;
  mutable uint32_t trace_pid_base_ = 0;
};

}  // namespace chiller::runner

#endif  // CHILLER_RUNNER_SWEEP_H_
