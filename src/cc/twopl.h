// Baseline: distributed two-phase locking (NO_WAIT) with two-phase commit.
#ifndef CHILLER_CC_TWOPL_H_
#define CHILLER_CC_TWOPL_H_

#include <memory>

#include "cc/protocol.h"

namespace chiller::cc {

/// The conventional execution of paper Figure 3a: the coordinator acquires
/// locks and reads records op-by-op (local access or one-sided CAS+READ),
/// the prepare phase is piggybacked onto the last execution step, the write
/// set is replicated, and finally updates are applied and locks released.
/// NO_WAIT: any lock conflict aborts the transaction immediately, so
/// deadlocks are impossible.
class TwoPhaseLocking : public Protocol {
 public:
  using Protocol::Protocol;

  const char* name() const override { return "2PL"; }

  void Execute(std::shared_ptr<txn::Transaction> t,
               sim::Task done) override;

  /// Runs the plain-2PL state machine on `t`. Exposed so Chiller can fall
  /// back to normal execution for transactions with no eligible inner
  /// region (Section 3.1: "when a transaction deals only with cold data it
  /// is executed normally, using 2PC at the end").
  static void Run(Protocol* proto, std::shared_ptr<txn::Transaction> t,
                  sim::Task done);
};

}  // namespace chiller::cc

#endif  // CHILLER_CC_TWOPL_H_
