// Workload driver: transaction slots, retries, measurement, with the load
// model (closed loop, open loop, batched) injected as policy.
#ifndef CHILLER_CC_DRIVER_H_
#define CHILLER_CC_DRIVER_H_

#include <memory>
#include <string>
#include <vector>

#include "cc/protocol.h"
#include "common/random.h"
#include "obs/metrics_registry.h"
#include "txn/transaction.h"

namespace chiller::schedule {
class Scheduler;
}  // namespace chiller::schedule

namespace chiller::cc {

class LoadModel;

/// Supplies transactions for the driver. Implementations live in
/// src/workload (TPC-C, Instacart-like, flight booking).
class WorkloadSource {
 public:
  virtual ~WorkloadSource() = default;

  /// Builds a fresh transaction homed at partition `home`.
  virtual std::unique_ptr<txn::Transaction> Next(PartitionId home,
                                                 Rng* rng) = 0;

  /// Rebuilds the same logical transaction (same class, same parameters)
  /// for a retry after a conflict abort.
  virtual std::unique_ptr<txn::Transaction> Rebuild(
      const txn::Transaction& t) = 0;

  virtual uint32_t NumClasses() const = 0;
  virtual std::string ClassName(uint32_t cls) const = 0;
};

/// Drives a protocol on a cluster. The *mechanics* of an attempt — ids,
/// timestamps, protocol dispatch, stats, the commit observer — live here;
/// the *load model* (when work arrives, how slots refill, what a freed slot
/// does) is an injected LoadModel policy (see cc/load_model.h). The default
/// model is the paper's closed loop: each engine keeps
/// `concurrent_per_engine` transactions open at all times (the "# concurrent
/// txns per warehouse" knob, Figure 9).
///
/// Execution is exposed as phase primitives (Start / Advance / Quiesce /
/// Resume, plus the measurement toggles) so a caller can compose arbitrary
/// phase plans — warmup, live stats sampling, a quiesced layout migration,
/// measurement — on one driver. Run() is the classic two-phase
/// warmup+measure composition of those primitives.
class Driver {
 public:
  /// Observes every *committed* transaction, whether or not the driver is
  /// measuring. The paper's Section 4.1 statistics service attaches a
  /// sampling StatsCollector here during sample phases.
  using CommitObserver = std::function<void(const txn::Transaction&)>;

  /// Classic closed-loop driver (equivalent to injecting
  /// ClosedLoop{concurrent_per_engine}).
  Driver(Cluster* cluster, Protocol* protocol, WorkloadSource* source,
         uint32_t concurrent_per_engine, uint64_t seed = 1);

  /// Driver with an explicit load model.
  Driver(Cluster* cluster, Protocol* protocol, WorkloadSource* source,
         std::unique_ptr<LoadModel> model, uint64_t seed = 1);

  ~Driver();

  /// Runs `warmup` of simulated time, resets counters, then measures for
  /// `measure`. Returns the stats of the measurement window.
  RunStats Run(SimTime warmup, SimTime measure);

  /// Arms the load model on every engine (filling slots / starting arrival
  /// clocks). Idempotent: only the first call launches anything.
  void Start();

  /// Advances the simulator `duration` ns past its current time, with the
  /// load model feeding the engines throughout (one phase of a phase plan).
  void Advance(SimTime duration);

  /// Stops the load model (no refills, no new arrivals) and drains every
  /// in-flight transaction (all locks released, replication quiesced);
  /// simulated time advances to the last settling event — for an open-loop
  /// model that includes each engine's one already-scheduled (and
  /// discarded) arrival, up to about one interarrival gap. The cluster is
  /// then safe to mutate structurally (e.g. record migration). Resume()
  /// re-arms the load model.
  void Quiesce();

  /// Re-arms the load model on every engine after a Quiesce(). Open-loop
  /// requests that were already admitted to a queue launch first.
  void Resume();

  /// Installs (or, with nullptr, removes) the commit observer. The observer
  /// runs in the committing transaction's home-engine context; under the
  /// sharded simulator that means concurrently from several threads, so it
  /// must shard its own state per engine (StatsCollector does).
  void SetCommitObserver(CommitObserver observer);

  /// Clears the per-class counters and the load-model accounting
  /// (admissions, sheds, queueing delay), keeping class names (end of
  /// warmup).
  void ResetStats();

  /// Toggles whether finished transactions are counted into stats().
  void set_measuring(bool measuring) { measuring_ = measuring; }

  /// Records the total measured window length into stats().
  void set_measured_window(SimTime window) { window_ = window; }

  /// Statistics of the current window, merged across the per-engine shards
  /// (engine-ascending, so the result is identical for any simulator shard
  /// count). Only call from outside the simulation or at control — it reads
  /// every engine's counters.
  const RunStats& stats() const;

  // Lifetime counters, independent of the measuring toggle and never
  // reset: timeline consumers diff them across slice boundaries to see
  // commit flow through warmup and migration windows that stats() does not
  // cover. Summed across engines on read (control-plane only).
  /// Committed transactions since construction.
  uint64_t lifetime_commits() const;
  /// Summed commit latency (end - start, ns) since construction.
  uint64_t lifetime_latency_ns() const;
  /// Attempts aborted by the live-migration bucket gate since construction.
  uint64_t lifetime_migration_aborts() const;

  /// Commit-latency histogram accumulated since the previous call (or
  /// construction), merged across engines and then cleared — the migration
  /// governor takes one window per controller epoch to read the epoch's
  /// foreground p99. Like the lifetime counters it fills regardless of the
  /// measuring toggle. Control-plane only: it reads and resets every
  /// engine's shard.
  Histogram TakeCommitLatencyWindow();

  /// The injected policy (never null).
  const LoadModel& load_model() const { return *model_; }

  /// Installs a non-owning admission scheduler (see schedule/scheduler.h):
  /// the load models consult it to classify, steer, and serialize
  /// admissions. Must be called before Start(); null (the default) keeps
  /// every legacy admission path byte-identical. The caller owns the
  /// scheduler and must keep it alive for the driver's lifetime
  /// (runner::ScenarioEnv does).
  void set_scheduler(schedule::Scheduler* scheduler);
  schedule::Scheduler* scheduler() const { return scheduler_; }

  // --- Load-model surface -------------------------------------------------
  // Called by LoadModel implementations; not meant for other callers.

  Cluster* cluster() { return cluster_; }
  /// Engine `e`'s workload RNG (transaction parameters, retry jitter). One
  /// stream per engine keeps draws independent of how engines interleave —
  /// the property the any-shard-count determinism rests on.
  Rng* rng(EngineId e) { return &per_engine_[e].rng; }
  /// True between Quiesce() and Resume(): models must stop producing work.
  bool quiesced() const { return stopped_; }

  /// Draws a fresh transaction for engine `e` from the workload source and
  /// executes it now. `admission_delay` is how long the request waited in
  /// an admission queue (0 for immediate admission); it rides along on
  /// retries of the same logical transaction.
  void LaunchFresh(EngineId e, SimTime admission_delay = 0);

  /// Executes transaction `t` on engine `e` now (retry callbacks land
  /// here; Quiesce() lets already-scheduled retries run to completion).
  void Launch(EngineId e, std::shared_ptr<txn::Transaction> t);

  /// Draws a fresh transaction from engine `e`'s workload stream *without*
  /// launching it, with accesses initialized and ready keys resolved so a
  /// scheduler can classify it. Scheduled admission paths pair this with
  /// LaunchRouted; the draw consumes e's workload RNG exactly like
  /// LaunchFresh, so fifo (which never calls it) stays byte-identical.
  std::shared_ptr<txn::Transaction> Draw(EngineId e);

  /// Executes a previously drawn (possibly steered) transaction on engine
  /// `e` now. `admission_delay` as in LaunchFresh.
  void LaunchRouted(EngineId e, std::shared_ptr<txn::Transaction> t,
                    SimTime admission_delay = 0);

  /// Rebuilds `t` for its next attempt (same logical transaction,
  /// attempt + 1, admission delay carried over).
  std::shared_ptr<txn::Transaction> RebuildForRetry(const txn::Transaction& t);

  /// Open-loop accounting for engine `e`, counted only while measuring: an
  /// arrival was admitted (launched or queued) / shed at a full queue / a
  /// finished request's admission-queue wait (committed or user-aborted —
  /// the wait is a property of admission, not of outcome).
  void NoteAdmitted(EngineId e);
  void NoteShed(EngineId e);
  void NoteQueueDelay(EngineId e, SimTime delay);
  /// A queued request on engine `e` was evicted by a shed policy in favor
  /// of a new arrival: counts a shed and, when the victim's admission was
  /// counted in the current window (`counted_admitted`), takes that
  /// admission back — per-engine `admitted` stays "requests that entered
  /// service or still wait", consistent with `shed`.
  void NoteShedEvicted(EngineId e, bool counted_admitted);
  /// True while finished work counts into stats() (scheduled admission
  /// queues record it per entry to keep eviction accounting exact across
  /// warmup/measure boundaries).
  bool measuring() const { return measuring_; }
  /// Per-engine accounting reads, control-plane only (tests assert that
  /// sheds land on the engine a request was routed *to*).
  uint64_t engine_admitted(EngineId e) const {
    return per_engine_[e].stats.admitted;
  }
  uint64_t engine_shed(EngineId e) const { return per_engine_[e].stats.shed; }
  // ------------------------------------------------------------------------

 private:
  /// Everything the driver mutates from engine `e`'s execution context.
  /// Sharding by engine keeps all hot-path writes on the engine's simulator
  /// shard; reads merge across engines and happen only at control. Padded
  /// so engines on different shards never share a cache line here.
  struct alignas(64) EngineState {
    Rng rng{1};
    TxnId next_local = 0;  ///< per-engine txn counter; global id derived
    /// Per-engine *logical* transaction counter: one tick per fresh draw,
    /// shared by all retry attempts of that draw. Feeds the trace sampler.
    TxnId next_logical = 0;
    RunStats stats;
  };

  void OnDone(EngineId e, const std::shared_ptr<txn::Transaction>& t);

  /// Assigns the logical id and the trace sampling decision on the first
  /// sighting of a transaction (Draw for scheduled admission, Launch
  /// otherwise). Idempotent per logical transaction: retries carry both.
  void AssignIdentity(EngineId e, txn::Transaction* t);

  Cluster* cluster_;
  Protocol* protocol_;
  WorkloadSource* source_;
  std::unique_ptr<LoadModel> model_;
  schedule::Scheduler* scheduler_ = nullptr;  ///< non-owning; null = fifo
  std::vector<EngineState> per_engine_;
  mutable RunStats merged_;  ///< scratch for stats(); control-plane only
  // Registry-backed lifetime metrics (the source the lifetime_* reads and
  // the latency window derive from). Engine-sharded inside the handles.
  obs::MetricsRegistry::Counter* m_commits_;
  obs::MetricsRegistry::Counter* m_latency_ns_;
  obs::MetricsRegistry::Counter* m_migration_aborts_;
  obs::MetricsRegistry::Counter* m_contention_aborts_;
  obs::MetricsRegistry::Counter* m_fallback_aborts_;
  obs::MetricsRegistry::Counter* m_user_aborts_;
  obs::MetricsRegistry::Counter* m_shed_;
  obs::MetricsRegistry::Hist* m_window_latency_;
  CommitObserver observer_;
  SimTime window_ = 0;
  bool open_loop_ = false;
  bool measuring_ = false;
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace chiller::cc

#endif  // CHILLER_CC_DRIVER_H_
