// Discrete-event simulator: the substrate standing in for the paper's
// 8-machine InfiniBand testbed. See DESIGN.md section 1 for the fidelity
// argument.
#ifndef CHILLER_SIM_SIMULATOR_H_
#define CHILLER_SIM_SIMULATOR_H_

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "sim/event_queue.h"
#include "sim/scheduler.h"

namespace chiller::sim {

/// Single-threaded deterministic event loop. All cluster components
/// (engines, NICs, the network) schedule callbacks here; simulated time
/// advances only between events, never inside one. Events execute in
/// exactly the canonical (time, domain, origin, seq) order, which is the
/// order the multi-threaded ShardedSimulator reproduces per domain — the
/// two are interchangeable behind sim::Scheduler, byte for byte.
class Simulator : public Scheduler {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const override { return now_; }
  DomainId current_domain() const override { return current_domain_; }

  void ScheduleIn(DomainId domain, SimTime when, Task fn) override;
  void ScheduleControl(SimTime delay, Task fn) override;

  /// Runs events until the queue drains.
  void Run() override;

  /// Runs all events with time <= `until`, then sets now() to `until`.
  void RunUntil(SimTime until) override;

  /// Drops every pending event (used by tests and to end measurement runs).
  void Clear() override;

  uint64_t events_processed() const override { return events_processed_; }
  bool idle() const override { return queue_.empty(); }

 private:
  void Execute(Event e);
  uint64_t NextSeq(DomainId origin);

  EventQueue queue_;
  SimTime now_ = 0;
  DomainId current_domain_ = kControlDomain;
  std::vector<uint64_t> seq_;  ///< per-origin-domain schedule counters
  uint64_t events_processed_ = 0;
};

}  // namespace chiller::sim

#endif  // CHILLER_SIM_SIMULATOR_H_
