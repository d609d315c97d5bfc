#include "cc/occ.h"

#include <utility>
#include <vector>

#include "cc/exec_common.h"

namespace chiller::cc {

namespace {

using txn::Outcome;
using txn::Transaction;

class OccRun : public std::enable_shared_from_this<OccRun> {
 public:
  OccRun(Protocol* proto, std::shared_ptr<Transaction> t,
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
      CollectSets();
      ValidateWriteNext(0);
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
            // No locks are held during OCC execution; aborting is free.
            self->Abort(Outcome::kAbortUser);
            return;
          }
          exec::FetchVersioned(
              self->deps_, self->t_.get(), i, self->eng_, [self, i]() {
                if (self->t_->blocked_by_migration) {
                  // The record's relayout bucket is mid-move: nothing was
                  // fetched and no locks are held, so aborting is free.
                  self->Abort(Outcome::kAbortConflict);
                  return;
                }
                self->ExecNext(i + 1);
              });
        });
  }

  /// Unique (non-alias) accesses split into write and read-only sets.
  /// Ops skipped by a dead conditional group never resolved a key and are
  /// not part of the footprint; missing probes stay in the read set — their
  /// bucket version check ensures the record still does not exist.
  void CollectSets() {
    for (size_t i = 0; i < t_->accesses.size(); ++i) {
      const txn::Access& acc = t_->accesses[i];
      if (acc.alias_of >= 0 || !acc.key_resolved || !acc.fetched) continue;
      (acc.wrote ? write_set_ : read_set_).push_back(i);
    }
  }

  // A failed validation aborts: all the execution-phase work — including
  // remote round trips — is now wasted; this is exactly the contention
  // pathology of Figure 9.
  void ValidateWriteNext(size_t k) {
    if (k == write_set_.size()) {
      ValidateReadNext(0);
      return;
    }
    auto self = shared_from_this();
    exec::ValidateLockWrite(deps_, t_.get(), write_set_[k], eng_,
                            [self, k](bool ok) {
                              if (!ok) {
                                self->Abort(Outcome::kAbortConflict);
                                return;
                              }
                              self->ValidateWriteNext(k + 1);
                            });
  }

  void ValidateReadNext(size_t k) {
    if (k == read_set_.size()) {
      exec::Commit(deps_, repl_, t_, eng_, /*trace_2pc=*/false,
                   std::move(done_));
      return;
    }
    auto self = shared_from_this();
    exec::ValidateRead(deps_, t_.get(), read_set_[k], eng_,
                       [self, k](bool ok) {
                         if (!ok) {
                           self->Abort(Outcome::kAbortConflict);
                           return;
                         }
                         self->ValidateReadNext(k + 1);
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
  std::vector<size_t> write_set_;
  std::vector<size_t> read_set_;
};

}  // namespace

void Occ::Execute(std::shared_ptr<Transaction> t, sim::Task done) {
  std::make_shared<OccRun>(this, std::move(t), std::move(done))->Start();
}

}  // namespace chiller::cc
