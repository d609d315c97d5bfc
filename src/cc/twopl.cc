#include "cc/twopl.h"

#include <utility>

#include "cc/exec_common.h"

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
    exec::Setup(deps_, t_.get(), eng_, [self]() { self->ExecNext(0); });
  }

 private:
  void ExecNext(size_t i) {
    if (i == t_->ops.size()) {
      exec::Commit(deps_, repl_, t_, eng_, /*trace_2pc=*/true,
                   std::move(done_));
      return;
    }
    auto self = shared_from_this();
    exec::RunOp(
        deps_, t_.get(), i, eng_, exec::Placement::kEveryOp,
        [self, i](exec::OpStep step) {
          if (step == exec::OpStep::kSkip) {
            self->ExecNext(i + 1);
            return;
          }
          if (step == exec::OpStep::kUserAbort) {
            self->Abort(Outcome::kAbortUser);
            return;
          }
          exec::LockAndFetch(self->deps_, self->t_.get(), i, self->eng_,
                             /*apply_inline=*/true, [self, i](bool ok) {
                               if (!ok) {
                                 self->Abort(Outcome::kAbortConflict);
                                 return;
                               }
                               self->ExecNext(i + 1);
                             });
        });
  }

  void Abort(Outcome outcome) {
    exec::Abort(deps_, t_, eng_, outcome, std::move(done_));
  }

  exec::Deps deps_;
  ReplicationManager* repl_;
  std::shared_ptr<Transaction> t_;
  sim::Task done_;
  Engine* eng_;
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
