// The sweep skeleton every simulator bench shares: a runner::SweepExecutor
// wired from the shared flags, one progress line per finished scenario,
// exit on the first failed scenario, and the wall-clock summary line.
// KneeSweep builds the open-loop knee sweep of the latency and scheduling
// benches on top of it.
#ifndef CHILLER_BENCH_BENCH_SWEEP_H_
#define CHILLER_BENCH_BENCH_SWEEP_H_

#include <chrono>
#include <string>
#include <vector>

#include "bench/bench_flags.h"
#include "runner/scenario.h"
#include "runner/sweep.h"

namespace chiller::bench {

class Sweep {
 public:
  /// Builds the executor from --jobs and --trace-out and starts the wall
  /// clock. `bench_name` prefixes progress and errors.
  Sweep(const BenchFlags& flags, std::string bench_name);

  /// Runs every spec (in parallel, per --jobs) and returns the results in
  /// spec order. Prints one stderr line per finished scenario; if any
  /// scenario failed, names the first in spec order and exits 1.
  std::vector<runner::ScenarioResult> Run(
      std::vector<runner::ScenarioSpec> specs);

  /// Prints "sweep: N scenarios in X s wall-clock (--jobs J, --shards S)"
  /// to stdout, N counting every Run call so far.
  void PrintWallClock() const;

 private:
  runner::SweepExecutor executor_;
  std::string name_;
  uint32_t shards_;
  size_t scenarios_ = 0;
  std::chrono::steady_clock::time_point start_;
};

/// One open-loop grid point, as the knee rule and the tables read it.
struct LoadPoint {
  double offered_tps = 0.0;
  double throughput_tps = 0.0;
  double exec_p99_ns = 0.0;   ///< p99 execution latency, every class merged
  double queue_p99_ns = 0.0;  ///< p99 admission-queue delay
  double shed_rate = 0.0;
};

/// The knee rule: the offered load of the last point (in ascending
/// offered-load order) that sheds nothing and whose p99 queueing delay is
/// at most its p99 execution latency — past it the admission queue, not
/// the engines, dominates latency. 0 when no point is sustained.
double Knee(const std::vector<LoadPoint>& ascending);

/// What KneeSweep::Run measured, indexed [probe][scheduler][fraction].
struct KneeResult {
  std::vector<double> capacity;  ///< closed-loop tps, one per probe
  /// Every open-loop run, probe-major, then scheduler, then fraction.
  std::vector<runner::ScenarioResult> runs;
  std::vector<std::vector<std::vector<LoadPoint>>> points;
  std::vector<std::vector<double>> knee;  ///< Knee() of each points series
};

/// The open-loop knee sweep: closed-loop capacity probes, then each probe
/// open-loop at fractions of its capacity, once per scheduler.
class KneeSweep {
 public:
  /// Checks the open-loop flags the grid runs under (--arrival,
  /// --queue-cap; the offered load is derived from the probes) and exits
  /// 1 naming the problem, so a bad value fails before any output.
  KneeSweep(const BenchFlags& flags, std::string bench_name);

  /// Stage 1 runs the closed-loop `probes` and exits 1 if one commits
  /// nothing. Stage 2 runs each probe open-loop at `fractions` (ascending)
  /// of its capacity under every scheduler in `schedulers`. The stage-2
  /// specs are a pure function of the deterministic stage-1 results, so
  /// --jobs N stays byte-identical.
  KneeResult Run(const std::vector<runner::ScenarioSpec>& probes,
                 const std::vector<double>& fractions,
                 const std::vector<std::string>& schedulers);

  void PrintWallClock() const { sweep_.PrintWallClock(); }

 private:
  std::string name_;
  Sweep sweep_;
};

}  // namespace chiller::bench

#endif  // CHILLER_BENCH_BENCH_SWEEP_H_
