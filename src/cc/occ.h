// Baseline: MaaT-inspired distributed optimistic concurrency control.
#ifndef CHILLER_CC_OCC_H_
#define CHILLER_CC_OCC_H_

#include <memory>

#include "cc/protocol.h"

namespace chiller::cc {

/// Optimistic execution: reads take no locks (version stamps are recorded),
/// writes are buffered. Commit runs a validation phase — exclusive locks on
/// the write set plus version checks on the read set, via one-sided CAS /
/// READ — followed by replication, apply, and release.
///
/// This is the failure mode the paper highlights (Section 7.3.2): under
/// contention a transaction does all of its work, including remote reads,
/// before discovering at validation time that it must abort. The MaaT
/// refinement (dynamic timestamp ranges) changes when an abort is detected,
/// not this wasted-work shape; see DESIGN.md for the substitution note.
class Occ : public Protocol {
 public:
  using Protocol::Protocol;

  const char* name() const override { return "OCC"; }

  void Execute(std::shared_ptr<txn::Transaction> t,
               sim::Task done) override;
};

}  // namespace chiller::cc

#endif  // CHILLER_CC_OCC_H_
