// Shared command-line interface for the figure/ablation benches.
//
// Every bench accepts the same flag set so runs are comparable and
// scriptable:
//
//   --protocol=NAME       a protocol name (see --list-protocols)
//   --nodes=N             cluster nodes
//   --engines=N           engines (cores/partitions) per node
//   --concurrency=N       open transactions per engine
//   --warmup-ms=N         simulated warmup before measuring
//   --duration-ms=N       simulated measurement window
//   --theta=F             Zipf skew for workloads that take one
//   --seed=N              base RNG seed
//   --load-model=NAME     closed | open (see cc/load_model.h)
//   --offered-tps=F       open loop: cluster-wide offered load, txns/sec
//   --arrival=NAME        open loop: poisson | uniform interarrivals
//   --queue-cap=N         open loop: per-engine admission queue bound
//   --scheduler=NAME      admission scheduler (see --list-schedulers)
//   --jobs=N              sweep worker threads (0 = all hardware threads)
//   --shards=N            simulator shards per scenario (threads inside one
//                         simulation; results byte-identical for any N)
//   --trace-out=FILE      write a Chrome trace-event JSON of the sampled
//                         transactions (load in Perfetto / chrome://tracing)
//   --trace-sample-every=N trace every Nth logical transaction per engine
//                         (0 = off; --trace-out with 0 implies 1)
//   --json=PATH           where to write the machine-readable report
//                         (default BENCH_<name>.json in the cwd)
//   --no-json             disable the JSON report
//   --list-protocols      print the protocol names, one per line, exit 0
//   --list-workloads      print the workload names, one per line, exit 0
//   --list-schedulers     print the scheduler names, one per line, exit 0
//   --help                print usage and exit 0
//
// Benches sweep their own x-axis (concurrency, partitions, % distributed);
// flags set the fixed parameters of the sweep. A bench reads only the
// fields it uses, and refuses the flags it does not read
// (RejectUnreadFlags) rather than ignore them.
#ifndef CHILLER_BENCH_BENCH_FLAGS_H_
#define CHILLER_BENCH_BENCH_FLAGS_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
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
  /// closed loop, which preserves all historical numbers).
  std::string load_model = "closed";
  double offered_tps = 0.0;       ///< open loop: cluster-wide offered load
  std::string arrival = "poisson";  ///< open loop: poisson | uniform
  uint32_t queue_cap = 64;        ///< open loop: admission queue per engine
  /// Admission scheduler for every scenario the bench sweeps (the default
  /// fifo admits in arrival order and draws at launch: byte-identical to
  /// the pre-scheduler code).
  /// See schedule/scheduler.h and --list-schedulers.
  std::string scheduler = "fifo";
  /// Sweep worker threads; 0 = one per hardware thread. Results are
  /// byte-identical for every value (see runner::SweepExecutor).
  uint32_t jobs = 1;
  /// Simulator shards per scenario: real threads splitting one simulated
  /// cluster's event space by node (see sim::ShardedSimulator). Orthogonal
  /// to --jobs (threads across scenarios); results are byte-identical for
  /// every value, only wall-clock changes.
  uint32_t shards = 1;
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
  std::string json_path;  ///< empty = BENCH_<bench name>.json
  bool emit_json = true;
  bool help = false;      ///< --help was given; caller prints usage, exits 0
  bool list_protocols = false;  ///< print names + exit (handled by OrExit)
  bool list_workloads = false;  ///< print names + exit (handled by OrExit)
  bool list_schedulers = false; ///< print names + exit (handled by OrExit)
  /// Names (without "--") of the flags argv gave, in argv order.
  std::vector<std::string> given;

  /// The --json override, or the default path for `bench_name`.
  std::string JsonPathFor(const std::string& bench_name) const {
    return json_path.empty() ? "BENCH_" + bench_name + ".json" : json_path;
  }

  /// The one mapping from the shared flags to a scenario spec: protocol,
  /// topology, concurrency, seed, the warmup/measure window, the load
  /// model, the scheduler, and the shard and trace knobs. Every simulator
  /// bench starts each grid point from this and sets only its own axes
  /// and workload on top.
  runner::ScenarioSpec BaseSpec() const;
};

/// What a bench that runs no simulator (pure layout/metric analysis) does
/// not read: every flag BenchFlags::BaseSpec maps onto a spec.
inline const std::initializer_list<std::string_view> kNoSimulatorFlags = {
    "protocol",  "nodes",       "engines",    "concurrency",
    "warmup-ms", "duration-ms", "load-model", "offered-tps",
    "arrival",   "queue-cap",   "scheduler",  "shards",
    "trace-out", "trace-sample-every"};

/// What a bench that compares layouts by closed-loop throughput does not
/// read: its grid fixes the closed loop, where --scheduler can only name
/// the default fifo and the open-loop knobs do nothing.
inline const std::initializer_list<std::string_view> kClosedLoopOnlyFlags = {
    "load-model", "offered-tps", "arrival", "queue-cap", "scheduler"};

/// Refuses the flags a bench does not read: InvalidArgument naming the
/// first flag argv gave that is among `unread` (names without "--"). A
/// flag is refused even at its default value: `--protocol=chiller` on a
/// bench that runs every protocol asks for something the bench ignores.
Status RejectUnreadFlags(const BenchFlags& flags,
                         std::initializer_list<std::string_view> unread);

/// Usage text for `bench_name`, listing every flag and its default.
/// `defaults` must be the same bench-specific defaults passed to parsing,
/// so --help reports what the bench actually does when a flag is absent.
std::string UsageString(const std::string& bench_name,
                        const BenchFlags& defaults = BenchFlags{});

/// Parses argv into `out` (which keeps its defaults for absent flags).
/// Returns InvalidArgument on an unknown flag, a malformed value, or a
/// --protocol / --scheduler name missing from its table; the message names
/// the offending argument. `--help` sets out->help and
/// returns OK without parsing further.
Status ParseBenchFlags(int argc, const char* const* argv, BenchFlags* out);

/// Standard prologue used by every bench main: parse flags, and on --help
/// or a parse error print usage to the right stream and exit (0 for
/// --help, 1 for errors). `defaults` carries bench-specific defaults
/// (e.g. fig7 measures 30 ms where the shared default is 15). Giving a
/// flag of `unread` exits 1 (RejectUnreadFlags), and so does a scheduler
/// the load model cannot host (schedule::ValidateSchedulerParams on
/// BaseSpec()), both before the bench prints anything.
BenchFlags ParseBenchFlagsOrExit(
    int argc, const char* const* argv, const std::string& bench_name,
    BenchFlags defaults = BenchFlags{},
    std::initializer_list<std::string_view> unread = {});

}  // namespace chiller::bench

#endif  // CHILLER_BENCH_BENCH_FLAGS_H_
