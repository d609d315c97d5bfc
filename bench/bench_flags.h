// Shared command-line interface for the figure/ablation benches.
//
// Every bench accepts the same flag set so runs are comparable and
// scriptable:
//
//   --protocol=NAME       a registered protocol (see --list-protocols)
//   --nodes=N             cluster nodes
//   --engines=N           engines (cores/partitions) per node
//   --concurrency=N       open transactions per engine
//   --warmup-ms=N         simulated warmup before measuring
//   --duration-ms=N       simulated measurement window
//   --theta=F             Zipf skew for workloads that take one
//   --seed=N              base RNG seed
//   --load-model=NAME     closed | open | batched (see cc/load_model.h)
//   --offered-tps=F       open loop: cluster-wide offered load, txns/sec
//   --arrival=NAME        open loop: poisson | uniform interarrivals
//   --queue-cap=N         open loop: per-engine admission queue bound
//   --batch-size=N        batched: transactions admitted per engine batch
//   --scheduler=NAME      admission scheduler (see --list-schedulers)
//   --sched-classes=N     conflict-class universe size (0 = auto)
//   --shed-policy=NAME    scheduled-queue overflow: drop-new | drop-cold |
//                         drop-hot
//   --jobs=N              sweep worker threads (0 = all hardware threads)
//   --shards=N            simulator shards per scenario (threads inside one
//                         simulation; results byte-identical for any N)
//   --mem-budget-mb=N     cap summed footprint of concurrently-loaded
//                         scenarios (0 = unlimited)
//   --trace-out=FILE      write a Chrome trace-event JSON of the sampled
//                         transactions (load in Perfetto / chrome://tracing)
//   --trace-sample-every=N trace every Nth logical transaction per engine
//                         (0 = off; --trace-out with 0 implies 1)
//   --json=PATH           where to write the machine-readable report
//                         (default BENCH_<name>.json in the cwd)
//   --no-json             disable the JSON report
//   --list-protocols      print the protocol registry, one per line, exit 0
//   --list-workloads      print the workload registry, one per line, exit 0
//   --list-schedulers     print the scheduler registry, one per line, exit 0
//   --list-shed-policies  print the shed policies, one per line, exit 0
//   --help                print usage and exit 0
//
// Benches sweep their own x-axis (concurrency, partitions, % distributed);
// flags set the fixed parameters of the sweep. A bench reads only the
// fields it uses.
#ifndef CHILLER_BENCH_BENCH_FLAGS_H_
#define CHILLER_BENCH_BENCH_FLAGS_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/status.h"
#include "runner/scenario.h"

namespace chiller::bench {

struct BenchFlags {
  std::string protocol = "chiller";
  uint32_t nodes = 8;
  uint32_t engines = 10;
  uint32_t concurrency = 4;
  double warmup_ms = 3.0;
  double duration_ms = 15.0;
  double theta = 0.99;
  uint64_t seed = 1;
  /// Load model for every scenario the bench sweeps (default: the paper's
  /// closed loop, which preserves all historical numbers). See
  /// ApplyLoadModelFlags for how these land on a ScenarioSpec.
  std::string load_model = "closed";
  double offered_tps = 0.0;       ///< open loop: cluster-wide offered load
  std::string arrival = "poisson";  ///< open loop: poisson | uniform
  uint32_t queue_cap = 64;        ///< open loop: admission queue per engine
  uint32_t batch_size = 8;        ///< batched: admissions per engine batch
  /// Admission scheduler for every scenario the bench sweeps (the default
  /// fifo is the passthrough: byte-identical to the pre-scheduler code).
  /// See schedule/scheduler.h and --list-schedulers.
  std::string scheduler = "fifo";
  uint32_t sched_classes = 0;     ///< conflict-class universe (0 = auto)
  /// Scheduled-queue overflow policy: drop-new | drop-cold | drop-hot.
  std::string shed_policy = "drop-new";
  /// Sweep worker threads; 0 = one per hardware thread. Results are
  /// byte-identical for every value (see runner::SweepExecutor).
  uint32_t jobs = 1;
  /// Simulator shards per scenario: real threads splitting one simulated
  /// cluster's event space by node (see sim::ShardedSimulator). Orthogonal
  /// to --jobs (threads across scenarios); results are byte-identical for
  /// every value, only wall-clock changes.
  uint32_t shards = 1;
  /// Memory budget for concurrently-loaded scenarios, MB; 0 = unlimited.
  /// High --jobs multiplies peak RSS (one loaded cluster per worker); the
  /// sweep keeps the summed footprint estimates of the scenarios in flight
  /// under this cap.
  uint64_t mem_budget_mb = 0;
  /// Chrome trace-event output: path of the merged trace across every
  /// scenario the bench sweeps (empty = no trace). Tracing replays the
  /// same domain events the stats come from, so enabling it never changes
  /// any result byte and the trace itself is byte-identical for any
  /// --jobs / --shards combination.
  std::string trace_out;
  /// Per-engine sampling stride for the tracer: every Nth logical
  /// transaction an engine issues is traced (0 = tracing off). When
  /// --trace-out is given and this is 0, it defaults to 1 (trace all).
  uint32_t trace_sample_every = 0;

  /// mem_budget_mb in bytes (what SweepExecutor consumes).
  uint64_t MemBudgetBytes() const { return mem_budget_mb * (1ull << 20); }
  std::string json_path;  ///< empty = BENCH_<bench name>.json
  bool emit_json = true;
  bool help = false;      ///< --help was given; caller prints usage, exits 0
  bool list_protocols = false;  ///< print registry + exit (handled by OrExit)
  bool list_workloads = false;  ///< print registry + exit (handled by OrExit)
  bool list_schedulers = false; ///< print registry + exit (handled by OrExit)
  bool list_shed_policies = false;  ///< print policies + exit (via OrExit)

  /// The --json override, or the default path for `bench_name`.
  std::string JsonPathFor(const std::string& bench_name) const {
    return json_path.empty() ? "BENCH_" + bench_name + ".json" : json_path;
  }
};

/// Copies the shared load-model flags onto one scenario spec. Benches call
/// this per grid point so any sweep can be re-run under open-loop or
/// batched admission without touching the bench; the "closed" default
/// leaves historical runs byte-identical.
inline void ApplyLoadModelFlags(const BenchFlags& flags,
                                runner::ScenarioSpec* spec) {
  spec->load_model = flags.load_model;
  spec->offered_tps = flags.offered_tps;
  spec->arrival = flags.arrival;
  spec->queue_cap = flags.queue_cap;
  spec->batch_size = flags.batch_size;
  // The admission-scheduler knobs ride along: they shape the same
  // arrival-to-engine stage the load model owns.
  spec->scheduler = flags.scheduler;
  spec->sched_classes = flags.sched_classes;
  spec->shed_policy = flags.shed_policy;
  spec->shards = flags.shards;
  spec->trace_sample_every = flags.trace_sample_every;
}

/// Guard for benches that never drive transactions through a load model
/// (pure layout/metric analysis): refuses non-default load-model flags
/// instead of silently ignoring them.
inline void RejectLoadModelFlags(const BenchFlags& flags,
                                 const std::string& bench_name) {
  const BenchFlags defaults;
  if (flags.load_model == defaults.load_model &&
      flags.offered_tps == defaults.offered_tps &&
      flags.arrival == defaults.arrival &&
      flags.queue_cap == defaults.queue_cap &&
      flags.batch_size == defaults.batch_size &&
      flags.scheduler == defaults.scheduler &&
      flags.sched_classes == defaults.sched_classes &&
      flags.shed_policy == defaults.shed_policy) {
    return;
  }
  std::fprintf(stderr,
               "%s: this bench does not drive transactions through a load "
               "model; --load-model / --offered-tps / --arrival / "
               "--queue-cap / --batch-size / --scheduler / --sched-classes "
               "/ --shed-policy have no effect here\n",
               bench_name.c_str());
  std::exit(1);
}

/// Usage text for `bench_name`, listing every flag and its default.
/// `defaults` must be the same bench-specific defaults passed to parsing,
/// so --help reports what the bench actually does when a flag is absent.
std::string UsageString(const std::string& bench_name,
                        const BenchFlags& defaults = BenchFlags{});

/// Parses argv into `out` (which keeps its defaults for absent flags).
/// Returns InvalidArgument on an unknown flag or a malformed value; the
/// message names the offending argument. `--help` sets out->help and
/// returns OK without parsing further.
Status ParseBenchFlags(int argc, const char* const* argv, BenchFlags* out);

/// Standard prologue used by every bench main: parse flags, and on --help
/// or a parse error print usage to the right stream and exit (0 for
/// --help, 1 for errors). `defaults` carries bench-specific defaults
/// (e.g. fig7 measures 30 ms where the shared default is 15).
BenchFlags ParseBenchFlagsOrExit(int argc, const char* const* argv,
                                 const std::string& bench_name,
                                 BenchFlags defaults = BenchFlags{});

}  // namespace chiller::bench

#endif  // CHILLER_BENCH_BENCH_FLAGS_H_
