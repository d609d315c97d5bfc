#include "sim/simulator.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace chiller::sim {

uint64_t Simulator::NextSeq(DomainId origin) {
  if (seq_.size() <= origin) seq_.resize(origin + 1, 0);
  return seq_[origin]++;
}

void Simulator::ScheduleIn(DomainId domain, SimTime when, Task fn) {
  CHILLER_CHECK(when >= now_) << "scheduling into the past: " << when << " < "
                              << now_;
  // Conservative-synchronization contract: a data-domain event may reach a
  // *different* data domain no earlier than the next lookahead boundary.
  // The network layer guarantees this by construction (cross-node latency
  // >= lookahead); anything else would be unrunnable on the sharded
  // implementation.
  CHILLER_DCHECK(lookahead() == 0 || current_domain_ == kControlDomain ||
                 domain == kControlDomain || domain == current_domain_ ||
                 when >= WindowEnd(now_))
      << "cross-domain event inside a lookahead window: " << current_domain_
      << " -> " << domain << " at " << when;
  queue_.Push(when, domain, current_domain_, NextSeq(current_domain_),
              std::move(fn));
}

void Simulator::ScheduleControl(SimTime delay, Task fn) {
  const SimTime when = ControlFireTime(delay);
  queue_.Push(when, kControlDomain, current_domain_,
              NextSeq(current_domain_), std::move(fn));
}

void Simulator::Execute(Event e) {
  CHILLER_DCHECK(e.time >= now_);
  now_ = e.time;
  current_domain_ = e.domain;
  ++events_processed_;
  e.fn();
  current_domain_ = kControlDomain;
}

void Simulator::Run() {
  while (!queue_.empty()) Execute(queue_.Pop());
}

void Simulator::RunUntil(SimTime until) {
  while (!queue_.empty() && queue_.NextTime() <= until) {
    Execute(queue_.Pop());
  }
  now_ = std::max(now_, until);
}

void Simulator::Clear() { queue_.Clear(); }

}  // namespace chiller::sim
