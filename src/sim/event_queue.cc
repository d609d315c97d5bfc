#include "sim/event_queue.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace chiller::sim {

void EventQueue::Push(SimTime time, Task fn) {
  Push(time, 0, 0, next_seq_++, std::move(fn));
}

void EventQueue::Push(SimTime time, uint32_t domain, uint32_t origin,
                      uint64_t seq, Task fn) {
  CHILLER_CHECK(domain < kMaxDomains && origin < kMaxDomains && seq < kMaxSeq)
      << "event tag out of range: domain " << domain << " origin " << origin
      << " seq " << seq;
  const uint64_t tie = (uint64_t{domain} << (kDomainBits + kSeqBits)) |
                       (uint64_t{origin} << kSeqBits) | seq;
  heap_.push_back(Entry{time, tie, std::move(fn)});
  std::push_heap(heap_.begin(), heap_.end(), Later);
}

SimTime EventQueue::NextTime() const {
  return heap_.empty() ? kSimTimeNever : heap_.front().time;
}

Event EventQueue::Pop() {
  CHILLER_CHECK(!heap_.empty());
  std::pop_heap(heap_.begin(), heap_.end(), Later);
  Entry& top = heap_.back();
  Event e{top.time, static_cast<uint32_t>(top.tie >> (kDomainBits + kSeqBits)),
          std::move(top.fn)};
  heap_.pop_back();
  return e;
}

}  // namespace chiller::sim
