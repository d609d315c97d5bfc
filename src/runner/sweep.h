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

/// Persists the footprint gate's learned EWMA actual/hint factor across
/// bench invocations, so a second run of the same binary starts from the
/// calibration the first one converged to instead of re-learning from the
/// static estimates. The file lives next to the bench report
/// (`.chiller_footprint_cache`) and holds a single clamped factor.
/// Scheduling-only state: results never depend on it.
struct FootprintCalibrationCache {
  /// The gate's clamp bounds — whole-process RSS over-counts under
  /// concurrency, so the correction is held to a trend, not an audit.
  static constexpr double kMinFactor = 0.25;
  static constexpr double kMaxFactor = 4.0;

  static double Clamp(double factor);

  /// Reads the stored factor into `*factor` (clamped). Returns false — and
  /// leaves `*factor` untouched — when the file is missing, unreadable, or
  /// not a finite number.
  static bool Load(const std::string& path, double* factor);

  /// Writes the (clamped) factor. Returns false on I/O failure; callers
  /// treat that as best-effort (a lost cache only costs re-learning).
  static bool Save(const std::string& path, double factor);

  /// The conventional cache location for a bench report:
  /// `<report dir>/.chiller_footprint_cache`.
  static std::string PathNextTo(const std::string& report_path);
};

class SweepExecutor {
 public:
  /// `jobs`: worker threads; 0 = one per hardware thread.
  explicit SweepExecutor(uint32_t jobs = 1) : jobs_(ResolveJobs(jobs)) {}

  uint32_t jobs() const { return jobs_; }

  /// When set, the memory-budget gate seeds its EWMA calibration from this
  /// file before the sweep and persists the converged factor after it
  /// (see FootprintCalibrationCache). Empty = in-process learning only.
  void set_calibration_cache(std::string path) {
    calibration_cache_ = std::move(path);
  }
  const std::string& calibration_cache() const { return calibration_cache_; }

  /// When set, every completed traced scenario's spans are appended to
  /// this Chrome trace-event file (one "process" per node per scenario,
  /// pids striped in spec order). Cumulative across Run calls on the same
  /// executor — each call rewrites the file with everything gathered so
  /// far, so a bench that sweeps figure-by-figure still emits one trace.
  /// Scenarios run with trace_sample_every == 0 contribute nothing.
  void set_trace_out(std::string path) { trace_out_ = std::move(path); }
  const std::string& trace_out() const { return trace_out_; }

  /// Caps the summed ScenarioSpec::footprint_hint of concurrently-running
  /// scenarios (N concurrent TPC-C clusters multiply peak RSS). 0 =
  /// unlimited. A worker whose next spec would exceed the budget waits for
  /// in-flight scenarios to finish; a single spec over budget still runs,
  /// alone. Specs with hint 0 (unknown) are never gated. The gate
  /// self-calibrates across the sweep: observed RSS growth per completed
  /// scenario (CurrentRssBytes) feeds an EWMA of actual/hint that scales
  /// later reservations (clamped; the applied correction is logged).
  /// Results are unaffected — each scenario stays a pure function of its
  /// spec.
  void set_mem_budget_bytes(uint64_t bytes) { mem_budget_bytes_ = bytes; }
  uint64_t mem_budget_bytes() const { return mem_budget_bytes_; }

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
  /// occupies S cores, so jobs x S would oversubscribe the machine). At
  /// least 1; scheduling-only — per-spec results are identical either way.
  uint32_t EffectiveJobs(const std::vector<ScenarioSpec>& specs) const;

 private:
  uint32_t jobs_;
  uint64_t mem_budget_bytes_ = 0;
  std::string calibration_cache_;
  std::string trace_out_;
  // Cumulative trace state across Run calls (traces merge in spec order
  // on the bench thread after the parallel barrier, so no lock is needed).
  mutable std::string trace_events_;
  mutable uint32_t trace_pid_base_ = 0;
};

/// Rough resident bytes one wired and loaded scenario adds (primary +
/// replica stores, all tables), for ScenarioSpec::footprint_hint. Derived
/// from the workload schema's bucket counts and initial row counts and the
/// storage layer's per-bucket and per-record sizes; deliberately coarse —
/// the budget gate needs relative magnitudes, not an allocator audit.
/// Returns 0 (unknown) for unrecognized workload keys.
uint64_t EstimateFootprint(const ScenarioSpec& spec);

/// This process's current resident set in bytes, read from
/// /proc/self/statm. Returns 0 where the probe is unavailable (non-Linux
/// builds, restricted /proc). When the memory-budget gate is active,
/// SweepExecutor logs each scenario's observed RSS growth next to its
/// footprint hint AND feeds the ratio back into the gate's calibration
/// factor, so the static EstimateFootprint numbers self-correct across a
/// sweep (scheduling only; results never depend on it).
uint64_t CurrentRssBytes();

}  // namespace chiller::runner

#endif  // CHILLER_RUNNER_SWEEP_H_
