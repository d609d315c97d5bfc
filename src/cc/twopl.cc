#include "cc/twopl.h"

#include <utility>

#include "cc/exec_common.h"
#include "common/logging.h"

namespace chiller::cc {

namespace {

using txn::Outcome;
using txn::Transaction;

/// One transaction attempt under plain 2PL + 2PC. Lives in shared_ptr
/// closures until the attempt settles.
class TwoPlRun : public std::enable_shared_from_this<TwoPlRun> {
 public:
  TwoPlRun(Protocol* proto, std::shared_ptr<Transaction> t,
           sim::Task done)
      : deps_{proto->cluster(), proto->partitioner()},
        repl_(proto->replication()),
        t_(std::move(t)),
        done_(std::move(done)) {
    eng_ = deps_.cluster->engine(
        deps_.cluster->topology().EngineOfPartition(t_->home));
  }

  void Start() {
    auto self = shared_from_this();
    eng_->cpu()->Submit(deps_.cluster->costs().txn_setup, [self]() {
      self->t_->ResolveReadyKeys();
      self->ExecNext(0);
    });
  }

 private:
  void ExecNext(size_t i) {
    if (i == t_->ops.size()) {
      BeginCommit();
      return;
    }
    auto self = shared_from_this();
    eng_->cpu()->Submit(deps_.cluster->costs().op_logic, [self, i]() {
      Transaction& t = *self->t_;
      const txn::Operation& op = t.ops[i];
      // Conditional groups: a missing guard record disables later ops.
      if (t.IsSkipped(i)) {
        self->ExecNext(i + 1);
        return;
      }
      // Value constraints run at their program position, after their
      // dependencies' reads.
      if (op.guard && !op.guard(t.ctx)) {
        self->Finish(Outcome::kAbortUser);
        return;
      }
      if (!t.accesses[i].key_resolved) {
        CHILLER_CHECK(t.KeyReady(i)) << "pk-dep not satisfied for op " << i;
        t.ResolveKey(i);
      }
      t.accesses[i].partition = exec::ResolvePartition(self->deps_, t, i);
      exec::LockAndFetch(self->deps_, self->t_.get(), i, self->eng_,
                         /*apply_inline=*/true, [self, i](bool ok) {
                           if (!ok) {
                             self->Finish(Outcome::kAbortConflict);
                             return;
                           }
                           self->ExecNext(i + 1);
                         });
    });
  }

  void BeginCommit() {
    // Replicate the write set before making anything visible ("changes to
    // the replicas have to be applied before committing", Section 5).
    auto self = shared_from_this();
    commit_start_ = deps_.cluster->sim()->now();
    exec::ReplicateWrites(
        repl_, *t_, exec::HeldIndices(*t_), eng_->id(),
        [self]() { self->ApplyPhase(); },
        [this](PartitionId p) {
          if (!t_->traced) return;
          // The 2PC fan-out: one replication round per written partition,
          // all in flight before the apply phase may start.
          deps_.cluster->trace()->Instant(eng_->id(), commit_start_,
                                          "2pc_replicate", t_->logical_id,
                                          t_->attempt, /*reason=*/nullptr,
                                          "partition", p);
        });
  }

  void ApplyPhase() {
    auto self = shared_from_this();
    exec::ApplyAndUnlock(deps_, t_.get(), exec::HeldIndices(*t_), eng_,
                         [self]() {
                           if (self->t_->traced) {
                             // Lock hold time across the replication
                             // round-trips — the paper's Figure 2 quantity.
                             self->deps_.cluster->trace()->Span(
                                 self->eng_->id(), self->commit_start_,
                                 self->deps_.cluster->sim()->now(),
                                 "commit_phase", self->t_->logical_id,
                                 self->t_->attempt);
                           }
                           self->Finish(Outcome::kCommitted);
                         });
  }

  void Finish(Outcome outcome) {
    if (outcome == Outcome::kCommitted) {
      Done(outcome);
      return;
    }
    // Abort: nothing was applied to any primary, so releasing locks is the
    // entire rollback.
    auto self = shared_from_this();
    exec::Release(deps_, t_.get(), exec::HeldIndices(*t_), eng_,
                  [self, outcome]() { self->Done(outcome); });
  }

  void Done(Outcome outcome) {
    t_->outcome = outcome;
    t_->end_time = deps_.cluster->sim()->now();
    done_();
  }

  exec::Deps deps_;
  ReplicationManager* repl_;
  std::shared_ptr<Transaction> t_;
  sim::Task done_;
  Engine* eng_;
  SimTime commit_start_ = 0;  ///< BeginCommit entry (the 2PC window)
};

}  // namespace

void TwoPhaseLocking::Run(Protocol* proto, std::shared_ptr<Transaction> t,
                          sim::Task done) {
  std::make_shared<TwoPlRun>(proto, std::move(t), std::move(done))->Start();
}

void TwoPhaseLocking::Execute(std::shared_ptr<Transaction> t,
                              sim::Task done) {
  Run(this, std::move(t), std::move(done));
}

}  // namespace chiller::cc
