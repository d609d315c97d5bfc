// Per-layer simulated-time numbers from a traced run's Chrome trace JSON.
#ifndef CHILLER_BENCHMARK_TRACE_BREAKDOWN_H_
#define CHILLER_BENCHMARK_TRACE_BREAKDOWN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace chiller::benchmark {

/// Span durations (simulated µs) of the sampled transactions whose spans
/// lie wholly inside the measure window. Spans of one transaction attempt
/// share the (txn, attempt) args the trace recorder writes.
struct TraceBreakdown {
  std::vector<double> attempt_us;       ///< every attempt, any outcome
  /// An attempt minus the part of it covered by its own inner_region and
  /// commit_phase spans: for a two-region Chiller attempt, the outer region
  /// and the waits around the inner one.
  std::vector<double> attempt_self_us;
  std::vector<double> commit_phase_us;  ///< 2PL commit: replicate + apply
  std::vector<double> inner_region_us;  ///< hot-record contention span
  std::vector<double> queue_wait_us;    ///< open-loop admission wait
  double retry_backoff_us = 0.0;        ///< summed backoff spans
  uint64_t commits = 0;                 ///< commit instants
  uint64_t events = 0;                  ///< trace events in the document
};

/// Parses a TraceRecorder::DumpJson() document and keeps the spans inside
/// [window_start, window_end] (simulated ns).
StatusOr<TraceBreakdown> AnalyzeTrace(const std::string& trace_json,
                                      SimTime window_start,
                                      SimTime window_end);

/// Linear-interpolated percentile (p in [0, 100]) of unsorted samples; 0
/// for an empty set.
double SamplePercentile(std::vector<double> values, double p);

double Mean(const std::vector<double>& values);

}  // namespace chiller::benchmark

#endif  // CHILLER_BENCHMARK_TRACE_BREAKDOWN_H_
