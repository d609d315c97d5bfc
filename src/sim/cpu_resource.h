// Serial CPU model for a transaction execution engine.
#ifndef CHILLER_SIM_CPU_RESOURCE_H_
#define CHILLER_SIM_CPU_RESOURCE_H_


#include "common/types.h"
#include "sim/scheduler.h"

namespace chiller::sim {

/// Models one pinned core running an execution engine (paper Section 6).
///
/// Work items are served FIFO and non-preemptively: a submission at time t
/// starts at max(t, busy_until) and completes `cost` ns later. This captures
/// the two CPU effects the evaluation depends on:
///   - the engine is never idle while work is pending (co-routine model), and
///   - throughput saturates once offered work exceeds core capacity
///     (the Figure 9a plateau at ~4 concurrent transactions).
///
/// The core lives in one event domain (its node's); completions are
/// scheduled there so the sharded simulator keeps all of a node's CPU state
/// on one thread.
class CpuResource {
 public:
  explicit CpuResource(Scheduler* sim, DomainId domain = kControlDomain)
      : sim_(sim), domain_(domain) {}

  /// Enqueues work consuming `cost` CPU-ns; `fn` runs at completion time.
  void Submit(SimTime cost, Task fn);

  /// Time at which the last queued work item completes.
  SimTime busy_until() const { return busy_until_; }

  /// Total CPU-ns consumed so far (for utilization reporting).
  SimTime total_busy() const { return total_busy_; }

  /// Utilization over [0, now].
  double Utilization() const;

 private:
  Scheduler* sim_;
  DomainId domain_;
  SimTime busy_until_ = 0;
  SimTime total_busy_ = 0;
};

}  // namespace chiller::sim

#endif  // CHILLER_SIM_CPU_RESOURCE_H_
