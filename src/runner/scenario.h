// Declarative scenario description: one simulated experiment point.
//
// A ScenarioSpec names a workload and a protocol (name-table keys), the
// cluster topology, the concurrency knob, the seed, and the measurement
// window. Benches build vectors of these and hand them to SweepExecutor;
// tests and examples run single specs through ScenarioRunner. The spec is
// a plain value: copyable, comparable, and independent of any live cluster.
#ifndef CHILLER_RUNNER_SCENARIO_H_
#define CHILLER_RUNNER_SCENARIO_H_

#include <memory>
#include <string>
#include <vector>

#include "cc/load_model.h"
#include "cc/migration.h"
#include "cc/protocol.h"
#include "common/types.h"
#include "obs/trace_recorder.h"
#include "runner/options.h"

namespace chiller::migrate {
struct AdaptiveControllerOptions;
}  // namespace chiller::migrate

namespace chiller::runner {

/// One step of a scenario's phase plan (see ScenarioSpec::phases).
enum class PhaseKind : uint8_t {
  kWarmup,   ///< run the closed loop, discard stats
  kSample,   ///< run the closed loop with a sampling StatsCollector attached
  kReplan,   ///< build a Chiller layout from the samples (no simulated time)
  /// Quiesced relayout: stop the driver, move the whole diff as one
  /// relayout bucket through the live migrator, resume.
  kMigrate,
  /// Live relayout (src/migrate): move records bucket-by-bucket while
  /// traffic keeps flowing; transactions hitting an in-flight bucket
  /// retry with the dedicated migration abort class.
  kLiveMigrate,
  kMeasure,  ///< run the closed loop, count stats
};

/// A phase plan entry. Timed phases (warmup/sample/measure) advance the
/// simulator by `duration`; replan/migrate are instantaneous decisions whose
/// cost shows up as the simulated migration pause. Build entries with the
/// factories so irrelevant knobs stay at their comparable defaults.
struct Phase {
  PhaseKind kind = PhaseKind::kMeasure;
  SimTime duration = 0;
  /// kSample: fraction of committed transactions recorded (paper: 0.001).
  double sample_rate = 1.0;
  /// kReplan: contention-likelihood threshold for the hot lookup table.
  /// The default keeps the hot set small (tens of records per partition on
  /// a zipf-0.9 workload) — the Section 4.4 regime the lookup table and
  /// the two-region planner are designed for.
  double hot_threshold = 0.05;

  static Phase Warmup(SimTime d) {
    return {.kind = PhaseKind::kWarmup, .duration = d};
  }
  static Phase Sample(SimTime d, double rate) {
    return {.kind = PhaseKind::kSample, .duration = d, .sample_rate = rate};
  }
  static Phase Replan(double hot_threshold = 0.05) {
    return {.kind = PhaseKind::kReplan, .hot_threshold = hot_threshold};
  }
  static Phase Migrate() { return {.kind = PhaseKind::kMigrate}; }
  static Phase LiveMigrate() { return {.kind = PhaseKind::kLiveMigrate}; }
  static Phase Measure(SimTime d) {
    return {.kind = PhaseKind::kMeasure, .duration = d};
  }

  friend bool operator==(const Phase&, const Phase&) = default;
};

struct ScenarioSpec {
  /// Free-form tag carried into the result (series name, grid point, ...).
  std::string label;

  /// Name-table keys; see runner::Workloads() / runner::Protocols().
  std::string workload = "tpcc";
  std::string protocol = "chiller";

  /// Workload-specific knobs, interpreted by the workload factory.
  OptionMap options;

  // Cluster topology (one partition per engine, as in the paper).
  uint32_t nodes = 8;
  uint32_t engines_per_node = 1;
  uint32_t replication_degree = 2;

  /// Open transactions per engine (the paper's Figure 9 knob). Under the
  /// open load model this is the per-engine service parallelism instead:
  /// how many admitted transactions may execute concurrently.
  uint32_t concurrency = 4;

  // Load model (see cc/load_model.h): how work is offered to the engines.
  /// "closed" (default, the paper's closed loop) or "open" (offered-load
  /// arrivals + bounded admission queue).
  std::string load_model = "closed";
  /// open: cluster-wide offered load, txns per simulated second, split
  /// evenly across engines. Required > 0 when load_model == "open".
  double offered_tps = 0.0;
  /// open: interarrival process, "poisson" or "uniform".
  std::string arrival = "poisson";
  /// open: bounded per-engine admission queue; arrivals beyond it are shed
  /// (counted in RunStats::shed).
  uint32_t queue_cap = 64;

  // Admission scheduler (see schedule/scheduler.h): which transaction is
  // admitted where, ahead of the load model's when.
  /// schedule::Schedulers() key: "fifo" (default: arrival order, no classification),
  /// "hash-affinity" (open model).
  std::string scheduler = "fifo";

  /// Base RNG seed: the whole scenario is a pure function of the spec.
  uint64_t seed = 1;

  /// Simulator shards: real threads running the scenario's event space
  /// (partitioned by node). Results are byte-identical for any value — the
  /// knob only trades wall-clock time for cores, which is why it is NOT
  /// part of the result identity (reports never emit it).
  uint32_t shards = 1;

  SimTime warmup = 3 * kMillisecond;
  SimTime measure = 15 * kMillisecond;

  /// Execution phase plan. Empty means the classic two-phase run,
  /// warmup -> measure, taken from the fields above (which the plan
  /// supersedes when non-empty). Sample/replan/migrate phases reproduce the
  /// paper's Section 4.1 adaptive loop and require a workload whose bundle
  /// exposes an adaptive partitioner (e.g. the `adaptive` family).
  std::vector<Phase> phases;

  // --- live relayout / continuous adaptivity (src/migrate) ----------------
  /// Relayout bucket count for live-migrate phases and the continuous
  /// controller: the granule of incremental migration (locked buckets
  /// gate their traffic; everything else keeps flowing).
  uint32_t relayout_buckets = 64;
  /// Records per migration RPC batch (quiesced and live relayouts alike).
  uint32_t migrate_batch_records = 128;
  /// Relayout buckets streamed concurrently by the live path (the
  /// migrator's k). 1 = the legacy sequential walk, byte for byte.
  uint32_t migrate_streams = 1;
  /// Attach a migrate::MigrationGovernor: every controller epoch (or
  /// advance step of a live-migrate phase) retunes the stream width
  /// between [governor_min_streams, governor_max_streams] against the
  /// foreground SLO below. migrate_streams is its starting width.
  bool governor = false;
  uint32_t governor_min_streams = 1;
  uint32_t governor_max_streams = 8;
  /// Foreground commit-latency p99 budget per epoch, ns; 0 disables the
  /// latency signal (abort share still governs).
  SimTime governor_p99_budget = 0;
  /// Largest tolerated per-epoch share of foreground outcomes aborted by
  /// the migration bucket gate, in [0, 1].
  double governor_max_abort_share = 0.05;
  /// Continuous mode: instead of a phase plan, the measure window runs
  /// under a migrate::AdaptiveController that periodically samples,
  /// replans, and live-migrates when workload drift exceeds the threshold
  /// (with hysteresis). Requires an adaptive workload and an empty
  /// `phases` vector (the controller owns the loop).
  bool continuous = false;
  /// Continuous mode: epoch length (one sample window + replan decision).
  SimTime controller_period = 2 * kMillisecond;
  /// Continuous mode: per-epoch commit sample rate, in (0, 1].
  double controller_sample_rate = 1.0;
  /// Continuous mode: drift above which a relayout starts — the relative
  /// residual-contention improvement a replanned layout would deliver on
  /// the epoch's traces (see migrate::AdaptiveControllerOptions).
  double controller_drift_threshold = 0.1;
  /// Continuous mode: consecutive calm epochs before the loop settles.
  uint32_t controller_hysteresis = 2;
  /// Continuous mode: relative worsening of the live layout's residual
  /// contention (vs the calm-state baseline) that re-arms a settled loop.
  /// 0 = settling is terminal (legacy).
  double rearm_threshold = 0.0;
  /// Continuous mode: score candidate layouts every epoch but never
  /// migrate and never settle (zero-risk shadow deployment).
  bool shadow = false;
  /// Throughput/latency timeline: when > 0, timed phases advance in slices
  /// of this length and every slice's commit count and latency sum land in
  /// AdaptiveReport::timeline (quiesced migration pauses show up as a
  /// zero-commit slice). 0 = no timeline.
  SimTime timeline_slice = 0;
  // ------------------------------------------------------------------------

  /// Trace every engine's k-th logical transaction when
  /// k % trace_sample_every == 0 (see obs::TraceRecorder::Sampled); 0
  /// disables tracing. Like shards, tracing must never change results:
  /// spans record from the same domain events that already run, so stats
  /// bytes are identical with tracing on or off.
  uint32_t trace_sample_every = 0;

  uint32_t partitions() const { return nodes * engines_per_node; }

  /// The spec's load-model knobs in cc terms — the single conversion
  /// behind validation (ScenarioRunner::Validate and bench flag parsing)
  /// and model construction (ScenarioRunner::Wire), so the field mapping
  /// cannot drift between them.
  cc::LoadModelParams MakeLoadModelParams() const {
    return {.slots_per_engine = concurrency,
            .offered_tps = offered_tps,
            .arrival = arrival,
            .queue_cap = queue_cap,
            .seed = seed};
  }

  /// The spec's relayout and controller knobs in migrate terms — the one
  /// conversion behind the continuous controller and the phase plan's
  /// relayouts (which take its migrator and governor options), defined in
  /// runner.cc.
  migrate::AdaptiveControllerOptions MakeAdaptiveControllerOptions() const;

  /// The plan Run() executes: `phases`, or the legacy two-phase shape.
  std::vector<Phase> EffectivePhases() const {
    if (!phases.empty()) return phases;
    return {Phase::Warmup(warmup), Phase::Measure(measure)};
  }

  friend bool operator==(const ScenarioSpec&, const ScenarioSpec&) = default;
};

/// One timeline slice: commit flow over [start, end) of simulated time,
/// from the driver's lifetime counters (measuring toggles do not affect
/// it). latency_ns_sum / commits is the slice's mean commit latency.
struct TimelineSlice {
  SimTime start = 0;
  SimTime end = 0;
  uint64_t commits = 0;
  uint64_t latency_ns_sum = 0;

  friend bool operator==(const TimelineSlice&, const TimelineSlice&) =
      default;
};

/// Adaptive-loop accounting for one scenario run: what the sampling service
/// saw, what the replan decided, and what the migration cost. All zero for
/// plans without sample/replan/migrate phases; summed over every relayout
/// when a run has several.
struct AdaptiveReport {
  uint64_t sampled_txns = 0;
  size_t hot_records = 0;
  size_t lookup_entries = 0;
  cc::MigrationStats migration;

  // Relayout window on the simulator clock: the first relayout's start to
  // the last one's end (a quiesced pause or a live span when there is one).
  SimTime migration_start = 0;
  SimTime migration_end = 0;
  /// Commits that landed inside the window: 0 by construction for the
  /// quiesced path, > 0 when live migration keeps traffic flowing.
  /// Continuous mode counts at epoch granularity — up to one controller
  /// period of post-relayout traffic rides along per relayout.
  uint64_t migration_window_commits = 0;
  /// Attempts aborted by the bucket gate inside the window.
  uint64_t migration_window_aborts = 0;
  /// Relayout buckets completed (a quiesced relayout is one bucket).
  uint32_t buckets_moved = 0;

  // Continuous-controller accounting (see migrate::AdaptiveController).
  uint32_t controller_epochs = 0;
  uint32_t controller_migrations = 0;
  bool controller_settled = false;
  /// Settled -> re-armed transitions (rearm_threshold > 0).
  uint32_t controller_rearms = 0;
  /// Shadow-mode candidate scorings (never executed).
  uint32_t shadow_evals = 0;
  /// Most recent replan's drift reading.
  double last_drift = 0.0;

  // Concurrent-stream accounting (a quiesced relayout runs one stream).
  /// Max relayout buckets concurrently in flight across the run.
  uint32_t peak_streams = 0;
  uint32_t governor_widens = 0;
  uint32_t governor_narrows = 0;

  /// Per-slice commit flow when ScenarioSpec::timeline_slice > 0.
  std::vector<TimelineSlice> timeline;
};

/// Outcome of one scenario: the spec it ran plus the measurement-window
/// stats and the host wall-clock the run took (sweep speedup accounting).
struct ScenarioResult {
  ScenarioSpec spec;
  cc::RunStats stats;
  AdaptiveReport adaptive;
  /// The run's trace recorder (never null after ScenarioRunner::Run;
  /// inactive unless spec.trace_sample_every > 0). Shared so the recorder
  /// outlives the run's cluster — SweepExecutor merges the per-scenario
  /// recorders into one --trace-out file after the sweep.
  std::shared_ptr<const obs::TraceRecorder> trace;
  double wall_ms = 0.0;
};

}  // namespace chiller::runner

#endif  // CHILLER_RUNNER_SCENARIO_H_
