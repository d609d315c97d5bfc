// Deterministic event queue for the discrete-event simulator.
#ifndef CHILLER_SIM_EVENT_QUEUE_H_
#define CHILLER_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "sim/fn.h"

namespace chiller::sim {

/// A popped event: when and in which domain it fires, and what it runs.
struct Event {
  SimTime time = 0;
  uint32_t domain = 0;  ///< domain the event fires in
  Task fn;
};

/// Min-heap of events ordered by the canonical key (time, domain, origin,
/// seq) — see sim/scheduler.h for why that order is independent of thread
/// interleaving. Two events at the same instant in the same domain from the
/// same origin fire in the order they were scheduled, which makes
/// simulations bit-for-bit reproducible; the plain Push(time, fn) overload
/// tags everything (domain 0, origin 0), so for standalone use the order
/// degenerates to the classic (time, schedule order) contract.
///
/// Each heap entry holds its Task (one pointer) under a packed key: time,
/// then one 64-bit tie word holding domain, origin and seq in fixed-width
/// fields, most significant first, so comparing tie words compares the
/// three fields lexicographically. Push rejects a tag that does not fit.
class EventQueue {
 public:
  static constexpr unsigned kDomainBits = 12;
  static constexpr unsigned kSeqBits = 64 - 2 * kDomainBits;
  /// Exclusive upper bounds of the tag fields.
  static constexpr uint64_t kMaxDomains = uint64_t{1} << kDomainBits;
  static constexpr uint64_t kMaxSeq = uint64_t{1} << kSeqBits;

  /// Schedules `fn` at absolute time `time` with the default tags and an
  /// internal schedule counter (standalone single-origin use).
  void Push(SimTime time, Task fn);

  /// Schedules `fn` with an explicit (domain, origin, seq) tag. The caller
  /// owns seq assignment (one counter per origin domain); mixing this with
  /// the untagged overload on one queue forfeits the uniqueness of keys.
  void Push(SimTime time, uint32_t domain, uint32_t origin, uint64_t seq,
            Task fn);

  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }

  /// Time of the earliest pending event; kSimTimeNever when empty.
  SimTime NextTime() const;

  /// Removes and returns the earliest event. Queue must be non-empty.
  Event Pop();

  /// Drops every pending event, destroying its closure.
  void Clear() { heap_.clear(); }

 private:
  struct Entry {
    SimTime time;
    uint64_t tie;  ///< domain | origin | seq, see the class comment
    Task fn;
  };
  /// Heap order: true when `a` fires after `b`.
  static bool Later(const Entry& a, const Entry& b) {
    return a.time != b.time ? a.time > b.time : a.tie > b.tie;
  }

  std::vector<Entry> heap_;
  uint64_t next_seq_ = 0;
};

}  // namespace chiller::sim

#endif  // CHILLER_SIM_EVENT_QUEUE_H_
