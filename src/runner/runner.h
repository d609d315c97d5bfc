// ScenarioRunner: turns a declarative ScenarioSpec into a wired simulated
// cluster and a measured run.
#ifndef CHILLER_RUNNER_RUNNER_H_
#define CHILLER_RUNNER_RUNNER_H_

#include <memory>

#include "cc/cluster.h"
#include "cc/driver.h"
#include "cc/protocol.h"
#include "cc/replication.h"
#include "common/status.h"
#include "runner/registry.h"
#include "runner/scenario.h"
#include "schedule/scheduler.h"

namespace chiller::runner {

/// A fully wired scenario: cluster + loaded data + protocol + driver, with
/// every owning pointer in teardown-safe member order. Examples and tests
/// that need to poke the wiring (protocol counters, storage invariants)
/// use Wire() and drive this directly; everything else uses Run().
struct ScenarioEnv {
  std::unique_ptr<WorkloadBundle> bundle;
  std::unique_ptr<cc::Cluster> cluster;
  std::unique_ptr<cc::ReplicationManager> repl;
  std::unique_ptr<cc::Protocol> protocol;
  /// Admission scheduler the driver consults (null for passthrough
  /// policies — fifo installs nothing, keeping legacy paths
  /// byte-identical). Declared before driver: members destroy in reverse
  /// order, so the driver never outlives the scheduler it points at.
  std::unique_ptr<schedule::Scheduler> scheduler;
  std::unique_ptr<cc::Driver> driver;
};

class ScenarioRunner {
 public:
  /// Structural checks that need no registry lookup (positive topology
  /// with at least replication_degree nodes, positive concurrency, a known
  /// load model with sane knobs — open needs a finite offered_tps > 0 and
  /// queue_cap >= 1 — and a well-formed phase plan:
  /// timed phases have positive durations, sampling precedes replanning,
  /// and every replan is immediately migrated).
  static Status Validate(const ScenarioSpec& spec);

  /// Resolves the workload and protocol from the global registries, builds
  /// the cluster, and loads the initial database. Does not run anything.
  static StatusOr<ScenarioEnv> Wire(const ScenarioSpec& spec);

  /// Wire() + the spec's phase plan + drain. The default plan is the
  /// classic warmup -> measure pair; adaptive plans interleave live stats
  /// sampling, a layout replan, and a record migration — quiesced
  /// (Phase::Migrate) or incremental under traffic (Phase::LiveMigrate,
  /// src/migrate). Continuous specs instead run the measure window under a
  /// migrate::AdaptiveController (periodic sample -> replan -> live-migrate
  /// epochs with drift gating and hysteresis). The result is a pure
  /// function of the spec: scenarios can run on any thread in any order.
  static StatusOr<ScenarioResult> Run(const ScenarioSpec& spec);
};

}  // namespace chiller::runner

#endif  // CHILLER_RUNNER_RUNNER_H_
