// Multi-threaded conservative-synchronization simulator: the same event
// semantics as sim::Simulator, executed across real threads.
#ifndef CHILLER_SIM_SHARDED_SIMULATOR_H_
#define CHILLER_SIM_SHARDED_SIMULATOR_H_

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/types.h"
#include "sim/event_queue.h"
#include "sim/per_domain.h"
#include "sim/scheduler.h"

namespace chiller::sim {

/// Runs the event space partitioned into shards, one event queue and one
/// clock per shard. Domains map statically to shards (domain d > 0 lives on
/// shard (d - 1) % num_shards; the control domain lives on the coordinating
/// thread). Shards advance in lock-step *windows* bounded by the lookahead
/// grid: within a window [kL, (k+1)L) every shard drains its own events
/// concurrently; between windows the coordinator drains the cross-shard
/// mailboxes and runs any due control events. Cross-shard messages carry at
/// least one lookahead of simulated latency, so nothing a shard does in
/// window k can affect another shard before window k+1 — each shard can run
/// its window without looking at the others.
///
/// Threads: the coordinating thread (the one calling Run/RunUntil) runs
/// shard 0's windows itself, and shards 1..N-1 each own a worker thread, so
/// one shard means no extra thread and the same code path. A window costs
/// one handoff: the coordinator publishes the window bounds and bumps a
/// release epoch, every worker bumps an arrival counter when its window is
/// done. Windows hold only microseconds of work, so both sides first spin
/// for about a window's host time and then park on the atomic
/// (std::atomic::wait/notify); when the shards outnumber the hardware
/// threads they park at once, since a spinning thread would only delay the
/// one it waits for.
///
/// Determinism: every event carries the canonical (time, domain, origin,
/// seq) key (see sim/scheduler.h). Keys are unique and assigned by
/// per-domain counters that do not depend on thread interleaving, each
/// shard pops its queue in canonical key order, and same-time events in
/// different data domains touch disjoint state. The execution is therefore
/// byte-identical to the single-threaded Simulator's total order — for any
/// shard count and any thread schedule.
class ShardedSimulator : public Scheduler {
 public:
  /// `num_domains` must cover every DomainId that will ever be scheduled
  /// (control + one per node). A shard owning no data domain would only
  /// add a thread, so the shard count is clamped to EffectiveShards().
  ShardedSimulator(uint32_t num_shards, uint32_t num_domains);
  ~ShardedSimulator() override;
  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  SimTime now() const override;
  DomainId current_domain() const override;

  void ScheduleIn(DomainId domain, SimTime when, Task fn) override;
  void ScheduleControl(SimTime delay, Task fn) override;

  void Run() override;
  void RunUntil(SimTime until) override;
  void Clear() override;

  uint64_t events_processed() const override;
  bool idle() const override;

  /// Shards actually run for `num_shards` requested over `num_domains`
  /// domains: at most one per data domain, at least one.
  static uint32_t EffectiveShards(uint32_t num_shards, uint32_t num_domains);

  uint32_t num_shards() const { return num_shards_; }

 private:
  /// An event in flight between shards, parked in a mailbox until the next
  /// window boundary. Carries the full canonical key assigned at send time;
  /// moving it moves the Task's node pointer, never the closure.
  struct Pending {
    SimTime when;
    DomainId domain;
    DomainId origin;
    uint64_t seq;
    Task fn;
  };

  /// Everything one shard's thread touches during a window. Padded so two
  /// shards never share a cache line through this struct.
  struct alignas(64) Shard {
    EventQueue queue;
    /// outbox[d]: events bound for shard d; single-producer (this shard's
    /// thread), drained by the coordinator between windows.
    std::vector<std::vector<Pending>> outbox;
    std::vector<Pending> control_outbox;
    uint64_t processed = 0;
    SimTime last_time = 0;
  };

  uint32_t ShardOfDomain(DomainId d) const { return (d - 1) % num_shards_; }
  uint64_t NextSeq(DomainId origin) { return seq_[origin]++; }

  /// Drains shard `s`'s events with time < window_end and time <= until,
  /// on the shard's thread (the coordinator's for shard 0).
  void RunWindow(uint32_t s);

  /// Coordinator: moves every outbox entry into its destination queue.
  /// Runs only between windows.
  void DrainMailboxes();

  /// Worker thread body for shard `s` >= 1: wait for a release, run the
  /// window, arrive; until the destructor releases with exit_ set.
  void WorkerLoop(uint32_t s);

  /// Coordinator: runs one window on every shard — releases the workers,
  /// runs shard 0 itself, and returns once every worker has arrived.
  void RunWindowOnAllShards();

  /// Advances until queues drain (run_all) or the next event exceeds
  /// `until`; shared body of Run and RunUntil.
  void Drive(SimTime until, bool run_all);

  const uint32_t num_shards_;
  std::vector<Shard> shards_;
  EventQueue control_queue_;
  PerDomain<uint64_t> seq_;  ///< per-origin-domain schedule counters

  SimTime global_now_ = 0;
  uint64_t control_processed_ = 0;
  /// Window bounds for the current window, written by the coordinator
  /// before it bumps release_; workers read them after seeing the bump.
  SimTime window_end_ = 0;
  SimTime window_until_ = 0;
  bool exit_ = false;

  /// Whether waits spin before parking: only while every shard can have
  /// a hardware thread of its own.
  const bool spin_;
  /// The handoff. The coordinator bumps release_ once per window (and once
  /// more to exit); each worker bumps arrived_ when its window is done, and
  /// the coordinator resets it before the next release. Separate lines: the
  /// workers write one while the coordinator polls the other.
  alignas(64) std::atomic<uint32_t> release_{0};
  alignas(64) std::atomic<uint32_t> arrived_{0};
  std::vector<std::thread> workers_;  ///< shards 1..num_shards_-1
};

}  // namespace chiller::sim

#endif  // CHILLER_SIM_SHARDED_SIMULATOR_H_
