// The sweep skeleton every simulator bench shares: a runner::SweepExecutor
// wired from the shared flags, one progress line per finished scenario,
// exit on the first failed scenario, and the wall-clock summary line.
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
  /// spec order. Every spec runs with --shards and --trace-sample-every:
  /// neither changes a result byte, so they are applied here once rather
  /// than per grid point by each bench. Prints one stderr line per
  /// finished scenario; if any scenario failed, names the first in spec
  /// order and exits 1.
  std::vector<runner::ScenarioResult> Run(
      std::vector<runner::ScenarioSpec> specs);

  /// Prints "sweep: N scenarios in X s wall-clock (--jobs J, --shards S)"
  /// to stdout, N counting every Run call so far.
  void PrintWallClock() const;

 private:
  runner::SweepExecutor executor_;
  std::string name_;
  uint32_t shards_;
  uint32_t trace_sample_every_;
  size_t scenarios_ = 0;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace chiller::bench

#endif  // CHILLER_BENCH_BENCH_SWEEP_H_
