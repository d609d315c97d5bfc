#include "runner/sweep.h"

#include <algorithm>
#include <cstdio>
#include <mutex>
#include <optional>
#include <utility>

#include "common/logging.h"
#include "obs/trace_recorder.h"
#include "sim/sharded_simulator.h"

namespace chiller::runner {

uint32_t ResolveJobs(uint32_t jobs) {
  if (jobs != 0) return jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<uint32_t>(hw);
}

uint32_t SweepExecutor::EffectiveJobs(
    const std::vector<ScenarioSpec>& specs) const {
  uint32_t max_shards = 1;
  for (const ScenarioSpec& s : specs) {
    max_shards = std::max(max_shards, sim::ShardedSimulator::EffectiveShards(
                                          s.shards, s.nodes + 1));
  }
  return std::max<uint32_t>(1, jobs_ / max_shards);
}

std::vector<StatusOr<ScenarioResult>> SweepExecutor::Run(
    const std::vector<ScenarioSpec>& specs, const ProgressFn& progress) const {
  // Sharded specs occupy several cores each; shrink the worker pool so
  // jobs x shards stays at the machine scale the user asked for.
  const uint32_t workers = EffectiveJobs(specs);
  if (workers != jobs_) {
    CHILLER_LOG(INFO) << "[sweep] sharded scenarios in the grid: running "
                      << workers << " sweep worker(s) instead of " << jobs_
                      << " so jobs x shards does not oversubscribe";
  }
  // ParallelMap needs default-constructed slots; StatusOr has no default
  // state, so map into optionals and unwrap after the barrier.
  std::mutex progress_mu;
  auto slots = ParallelMap(
      workers, specs.size(),
      [&](size_t i) -> std::optional<StatusOr<ScenarioResult>> {
        StatusOr<ScenarioResult> result = ScenarioRunner::Run(specs[i]);
        if (progress) {
          std::lock_guard<std::mutex> lock(progress_mu);
          progress(i, result);
        }
        return result;
      });
  std::vector<StatusOr<ScenarioResult>> results;
  results.reserve(slots.size());
  for (auto& slot : slots) results.push_back(std::move(*slot));
  if (!trace_out_.empty()) {
    // Merge this call's traces into the cumulative event buffer in spec
    // order (completion order is scheduling-dependent; spec order is not)
    // and rewrite the whole file, so the trace on disk is valid JSON after
    // every Run call. Each scenario's nodes get a fresh pid range.
    for (const StatusOr<ScenarioResult>& r : results) {
      if (!r.ok() || r->trace == nullptr || !r->trace->active()) continue;
      const std::string label =
          r->spec.label.empty() ? r->spec.workload + "/" + r->spec.protocol
                                : r->spec.label;
      r->trace->AppendEvents(&trace_events_, trace_pid_base_, label);
      trace_pid_base_ += r->trace->num_pids();
    }
    const std::string json = obs::TraceRecorder::WrapTrace(trace_events_);
    std::FILE* f = std::fopen(trace_out_.c_str(), "w");
    if (f == nullptr) {
      CHILLER_LOG(WARN) << "[sweep] could not open trace output "
                        << trace_out_;
    } else {
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
    }
  }
  return results;
}

}  // namespace chiller::runner
