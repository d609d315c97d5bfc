// Scheduling interface shared by the single-threaded Simulator and the
// multi-threaded ShardedSimulator, plus the event-domain vocabulary both
// implementations order events by.
//
// ## Domains
//
// Every event belongs to a *domain*: a serial island of simulated state.
// Domain 0 (kControlDomain) is the control plane — quiesced migrations,
// live-migrator bucket completions, phase bookkeeping — which may touch any
// state because it only ever runs while every other domain is paused. Data
// domains (1 + node id) carry the per-node execution: engine CPUs, primary
// and replica stores hosted on that node, and the node's network send
// horizons. Two events in different data domains never touch the same
// state within one lookahead window (messages between nodes carry at least
// one window of simulated latency), which is what lets the sharded
// implementation run domains on real threads without changing any result.
//
// ## The canonical event order
//
// Both implementations execute events in an order consistent with the
// total key (time, domain, origin_domain, origin_seq):
//
//   - time           the simulated instant the event fires;
//   - domain         the domain it fires in (control sorts before data, so
//                    a control batch at a window boundary runs before the
//                    window that starts there);
//   - origin_domain  the domain that was executing when the event was
//                    scheduled;
//   - origin_seq     a per-origin-domain schedule counter.
//
// The last two make ties deterministic *independently of thread
// interleaving*: each domain's execution sequence — and therefore its
// schedule sequence — is identical for any shard count, so the key never
// depends on how domains happened to interleave on real threads. The
// single-threaded Simulator executes exactly this total order; the sharded
// one executes a per-domain-consistent interleaving of it, which produces
// byte-identical results because same-time events in different data
// domains commute.
//
// ## Callbacks
//
// Every scheduled callback is a sim::Task (sim/fn.h): a move-only closure
// built once, in place, in a node from the scheduling thread's free list.
// Queues and mailboxes move Tasks, which copies one pointer, so once the
// free lists are warm a simulated hop pays neither a heap allocation nor a
// closure copy. Protocol continuations use the same type (Task,
// Fn<void(bool)>), and a lambda converts to either implicitly.
#ifndef CHILLER_SIM_SCHEDULER_H_
#define CHILLER_SIM_SCHEDULER_H_

#include <cstdint>
#include "common/types.h"
#include "sim/fn.h"

namespace chiller::sim {

/// A serial island of simulated state; see the header comment.
using DomainId = uint32_t;

/// The control plane: runs only while every data domain is paused, may
/// touch anything, and sorts before data events at the same instant.
inline constexpr DomainId kControlDomain = 0;

/// The data domain hosting node `n`'s engines, stores and send horizons.
constexpr DomainId DomainOfNode(NodeId n) { return n + 1; }

/// What Schedule/ScheduleAt/ScheduleIn and Run/RunUntil/Clear mean is
/// defined here once; Simulator (one thread, one queue) and
/// ShardedSimulator (one queue per shard, conservative lookahead windows)
/// are interchangeable behind this interface — protocol code never names a
/// concrete implementation.
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Current simulated time: the executing event's timestamp inside an
  /// event, the last Run/RunUntil horizon outside one.
  virtual SimTime now() const = 0;

  /// Domain of the event currently executing; kControlDomain outside
  /// events (external callers are control-plane by definition: they run
  /// between Run/RunUntil calls, with every domain paused).
  virtual DomainId current_domain() const = 0;

  /// Schedules `fn` in `domain` at absolute time `when` (>= now()). From a
  /// data-domain event into a *different* data domain, `when` must not
  /// precede the next lookahead boundary — cross-domain interaction inside
  /// a window is exactly what the conservative synchronization forbids.
  /// The network layer satisfies this by construction (every cross-node
  /// message carries at least one window of latency); a DCHECK enforces it.
  virtual void ScheduleIn(DomainId domain, SimTime when, Task fn) = 0;

  /// Schedules `fn` on the control plane. The fire time is now() + delay
  /// rounded *up* to the lookahead grid (control runs only at window
  /// boundaries, where every domain is paused); from a data-domain event
  /// it is additionally clamped past the current window's end. With no
  /// lookahead configured (standalone single-threaded use) it degenerates
  /// to plain control-domain scheduling at now() + delay. The rounding is
  /// pure arithmetic on (now, delay, lookahead) — identical for every
  /// shard count.
  virtual void ScheduleControl(SimTime delay, Task fn) = 0;

  /// Runs events until every queue drains. Leaves now() at the last
  /// event's timestamp.
  virtual void Run() = 0;

  /// Runs all events with time <= `until`, then sets now() to `until`.
  virtual void RunUntil(SimTime until) = 0;

  /// Drops every pending event (tests; ending a measurement run).
  virtual void Clear() = 0;

  virtual uint64_t events_processed() const = 0;
  virtual bool idle() const = 0;

  /// The conservative-synchronization lookahead: the minimum simulated
  /// latency of any cross-domain message (one-way network propagation +
  /// NIC processing). Cluster wiring sets it from the network config on
  /// both implementations, so their control-plane rounding agrees; 0 means
  /// "no grid" (standalone single-threaded use).
  void set_lookahead(SimTime lookahead) { lookahead_ = lookahead; }
  SimTime lookahead() const { return lookahead_; }

  /// Schedules `fn` in the *current* domain, `delay` ns from now.
  void Schedule(SimTime delay, Task fn) {
    ScheduleIn(current_domain(), now() + delay, std::move(fn));
  }

  /// Schedules `fn` in the current domain at absolute time `when`.
  void ScheduleAt(SimTime when, Task fn) {
    ScheduleIn(current_domain(), when, std::move(fn));
  }

 protected:
  /// First lookahead-grid point at or after `t`; `t` itself when no grid
  /// is configured.
  SimTime GridCeil(SimTime t) const {
    if (lookahead_ == 0) return t;
    return (t + lookahead_ - 1) / lookahead_ * lookahead_;
  }

  /// End of the lookahead window containing `t` (the next boundary
  /// strictly after `t` when `t` sits exactly on the grid).
  SimTime WindowEnd(SimTime t) const {
    if (lookahead_ == 0) return t;
    return (t / lookahead_ + 1) * lookahead_;
  }

  /// Control-plane fire time for ScheduleControl: grid-rounded, and — from
  /// a data-domain event — never inside the window that is executing.
  SimTime ControlFireTime(SimTime delay) const {
    const SimTime target = GridCeil(now() + delay);
    if (current_domain() == kControlDomain) return target;
    return target > WindowEnd(now()) ? target : WindowEnd(now());
  }

 private:
  SimTime lookahead_ = 0;
};

}  // namespace chiller::sim

#endif  // CHILLER_SIM_SCHEDULER_H_
