#include "chiller/two_region.h"

#include <memory>
#include <utility>
#include <vector>

#include "cc/exec_common.h"
#include "cc/twopl.h"
#include "common/logging.h"
#include "txn/dependency_graph.h"

namespace chiller::core {

namespace exec = ::chiller::cc::exec;

namespace {

using cc::Engine;
using txn::Outcome;
using txn::Transaction;
using txn::TwoRegionPlan;

}  // namespace

/// One two-region transaction attempt (Section 3.3 steps 3-5).
class ChillerRun : public std::enable_shared_from_this<ChillerRun> {
 public:
  ChillerRun(ChillerProtocol* proto, std::shared_ptr<Transaction> t,
             TwoRegionPlan plan, sim::Task done)
      : proto_(proto),
        deps_{proto->cluster(), proto->partitioner()},
        t_(std::move(t)),
        plan_(std::move(plan)),
        done_(std::move(done)) {
    coord_ = deps_.cluster->engine(
        deps_.cluster->topology().EngineOfPartition(t_->home));
    inner_eng_ = deps_.cluster->engine(
        deps_.cluster->topology().EngineOfPartition(plan_.inner_host));
  }

  /// Step 3: read and lock records in the outer region.
  void Start() { OuterNext(0); }

 private:
  bool IsDeferred(int op_index) const {
    for (int d : plan_.deferred_apply) {
      if (d == op_index) return true;
    }
    return false;
  }

  void OuterNext(size_t k) {
    if (k == plan_.outer_ops.size()) {
      DispatchInner();
      return;
    }
    const size_t i = static_cast<size_t>(plan_.outer_ops[k]);
    auto self = shared_from_this();
    exec::RunOp(
        deps_, t_.get(), i, coord_, exec::Placement::kLateKeys,
        [self, k, i](exec::OpStep step) {
          if (step == exec::OpStep::kSkip) {
            self->OuterNext(k + 1);
            return;
          }
          // Outer guards depend only on outer reads (planner invariant), so
          // every possible user abort happens before the inner region runs.
          if (step == exec::OpStep::kUserAbort) {
            self->Abort(Outcome::kAbortUser);
            return;
          }
          const bool deferred = self->IsDeferred(static_cast<int>(i));
          exec::LockAndFetch(self->deps_, self->t_.get(), i, self->coord_,
                             /*apply_inline=*/!deferred, [self, k](bool ok) {
                               if (!ok) {
                                 ++self->proto_->counters_.outer_aborts;
                                 self->Abort(Outcome::kAbortConflict);
                                 return;
                               }
                               self->OuterNext(k + 1);
                             });
        });
  }

  /// Step 4: delegate the inner region to its host. After this point the
  /// coordinator can no longer abort the transaction — the decision belongs
  /// to the inner host alone.
  void DispatchInner() {
    auto self = shared_from_this();
    if (plan_.inner_host == t_->home) {
      ++proto_->counters_.inner_local;
      ExecuteInner([self]() { self->OnInnerReply(); });
      return;
    }
    // RPC with all information needed to execute and commit (txn id,
    // operation ids, input parameters — modeled as bytes).
    const size_t req_bytes = 64 + 24 * plan_.inner_ops.size() +
                             8 * t_->ctx.params.size();
    if (t_->traced) {
      deps_.cluster->trace()->Instant(
          coord_->id(), deps_.cluster->sim()->now(), "inner_dispatch",
          t_->logical_id, t_->attempt, /*reason=*/nullptr, "bytes", req_bytes);
    }
    deps_.cluster->rpc()->Send(
        coord_->id(), inner_eng_->id(), req_bytes,
        deps_.cluster->costs().inner_dispatch, [self]() {
          self->ExecuteInner([self]() {
            // Reply to the coordinator with the outcome and result values.
            self->deps_.cluster->rpc()->Send(
                self->inner_eng_->id(), self->coord_->id(), 64, 0,
                [self]() { self->OnInnerReply(); });
          });
        });
  }

  // ---- inner host side: inner_outcome_ and inner_had_writes_ are written
  // here and read by the coordinator only after `reply` lands ----

  /// Runs at the inner host: executes all inner ops locally, commits
  /// unilaterally, and fires the replica stream (without waiting — the
  /// replicas ack the coordinator; Figure 6).
  void ExecuteInner(sim::Task reply) {
    inner_start_ = deps_.cluster->sim()->now();
    InnerOpNext(0, std::move(reply));
  }

  void InnerOpNext(size_t k, sim::Task reply) {
    if (k == plan_.inner_ops.size()) {
      InnerCommit(std::move(reply));
      return;
    }
    const size_t i = static_cast<size_t>(plan_.inner_ops[k]);
    auto self = shared_from_this();
    exec::RunOp(
        deps_, t_.get(), i, inner_eng_, exec::Placement::kLateKeys,
        [self, k, i, reply = std::move(reply)](exec::OpStep step) mutable {
          if (step == exec::OpStep::kSkip) {
            self->InnerOpNext(k + 1, std::move(reply));
            return;
          }
          if (step == exec::OpStep::kUserAbort) {
            self->InnerAbort(Outcome::kAbortUser, std::move(reply));
            return;
          }
          // The dependency graph guarantees every inner record is local to
          // the host (Section 3.3 step 4). Under a layout produced by
          // online relayout that guarantee can break for late-resolved
          // keys — the workload's co_located_with_dep declarations assume
          // the layout it was written against. Abort the attempt and pin
          // its retries to the fallback protocol: replanning would build
          // the same broken inner region forever.
          if (self->t_->accesses[i].partition != self->plan_.inner_host) {
            CHILLER_CHECK(
                self->deps_.cluster->bucket_locks()->ever_active())
                << "inner op " << i << " not on inner host";
            self->t_->force_fallback = true;
            self->InnerAbort(Outcome::kAbortConflict, std::move(reply));
            return;
          }
          exec::LockAndFetch(
              self->deps_, self->t_.get(), i, self->inner_eng_,
              /*apply_inline=*/true,
              [self, k, reply = std::move(reply)](bool ok) mutable {
                if (!ok) {
                  self->InnerAbort(Outcome::kAbortConflict, std::move(reply));
                  return;
                }
                self->InnerOpNext(k + 1, std::move(reply));
              });
        });
  }

  /// "The inner region commits upon completion" — apply, unlock, stream to
  /// replicas, reply. All local to the host; the hot records' contention
  /// span ends here.
  void InnerCommit(sim::Task reply) {
    auto self = shared_from_this();
    const auto held = exec::HeldIndices(*t_, plan_.inner_ops);
    auto writes = exec::CollectWrites(*t_, held);
    CHILLER_CHECK(writes.size() <= 1) << "inner writes span partitions";
    inner_outcome_ = Outcome::kCommitted;
    inner_had_writes_ = !writes.empty();
    exec::ApplyAndUnlock(
        deps_, t_.get(), held, inner_eng_,
        [self, writes = std::move(writes),
         reply = std::move(reply)]() mutable {
          if (self->t_->traced) {
            // Runs on the inner host's engine — the hot records' contention
            // span, the quantity the paper's argument is about.
            self->deps_.cluster->trace()->Span(
                self->inner_eng_->id(), self->inner_start_,
                self->deps_.cluster->sim()->now(), "inner_region",
                self->t_->logical_id, self->t_->attempt, "commit");
          }
          if (!writes.empty()) {
            // Fire-and-continue: the inner host does NOT wait for acks.
            self->proto_->replication()->Replicate(
                self->inner_eng_->id(), self->plan_.inner_host,
                std::move(writes.front().second), self->coord_->id(),
                [self]() { self->OnInnerReplicaAcks(); });
          }
          reply();
        });
  }

  void InnerAbort(Outcome why, sim::Task reply) {
    ++proto_->counters_.inner_aborts;
    inner_outcome_ = why;
    auto self = shared_from_this();
    // Roll back is lock release only: primaries were untouched.
    exec::Release(deps_, t_.get(), exec::HeldIndices(*t_, plan_.inner_ops),
                  inner_eng_,
                  [self, reply = std::move(reply)]() {
                    if (self->t_->traced) {
                      self->deps_.cluster->trace()->Span(
                          self->inner_eng_->id(), self->inner_start_,
                          self->deps_.cluster->sim()->now(), "inner_region",
                          self->t_->logical_id, self->t_->attempt, "abort");
                    }
                    reply();
                  });
  }

  // ---- coordinator side, after the inner region ----

  void OnInnerReplicaAcks() {
    inner_replicated_ = true;
    MaybeFinishInnerWait();
  }

  void OnInnerReply() {
    if (t_->traced) {
      deps_.cluster->trace()->Instant(
          coord_->id(), deps_.cluster->sim()->now(), "inner_reply",
          t_->logical_id, t_->attempt,
          inner_outcome_ == Outcome::kCommitted ? "commit" : "abort");
    }
    inner_replied_ = true;
    MaybeFinishInnerWait();
  }

  void MaybeFinishInnerWait() {
    if (!inner_replied_ || inner_wait_done_) return;
    if (inner_outcome_ != Outcome::kCommitted) {
      inner_wait_done_ = true;
      // Inner aborted: unroll the outer region.
      Abort(inner_outcome_);
      return;
    }
    const bool need_acks =
        inner_had_writes_ && deps_.cluster->topology().num_replicas() > 0;
    if (need_acks && !inner_replicated_) return;
    inner_wait_done_ = true;
    OuterPhase2();
  }

  /// Step 5: the transaction is already committed; apply deferred writes,
  /// then commit the outer write set like any other.
  void OuterPhase2() {
    auto self = shared_from_this();
    const SimTime cost = deps_.cluster->costs().op_logic *
                         std::max<size_t>(1, plan_.deferred_apply.size());
    coord_->cpu()->Submit(cost, [self]() {
      exec::ApplyDeferred(self->t_.get(), self->plan_.deferred_apply);
      exec::Commit(self->deps_, self->proto_->replication(), self->t_,
                   self->coord_, /*trace_2pc=*/false,
                   std::move(self->done_));
    });
  }

  void Abort(Outcome outcome) {
    exec::Abort(deps_, t_, coord_, outcome, std::move(done_));
  }

  ChillerProtocol* proto_;
  exec::Deps deps_;
  std::shared_ptr<Transaction> t_;
  TwoRegionPlan plan_;
  sim::Task done_;
  Engine* coord_;
  Engine* inner_eng_;

  bool inner_replied_ = false;
  bool inner_replicated_ = false;
  bool inner_wait_done_ = false;
  SimTime inner_start_ = 0;  ///< set on the inner host at region entry
  Outcome inner_outcome_ = Outcome::kPending;  ///< set on the inner host
  bool inner_had_writes_ = false;              ///< set on the inner host
};

void ChillerProtocol::Execute(std::shared_ptr<Transaction> t,
                              sim::Task done) {
  Engine* coord = cluster_->engine(
      cluster_->topology().EngineOfPartition(t->home));
  Transaction* raw = t.get();
  // Steps 1-2 of Section 3.3, run in the setup slice: place, plan, and start
  // either the two-region attempt or the plain 2PL fallback.
  auto decide = [this, t = std::move(t), done = std::move(done)]() mutable {
    // Plan-time placement: the planner reads every resolved access's
    // partition. Keys that resolve later are placed by the op prologue.
    const exec::Deps deps{cluster_, partitioner_};
    for (size_t i = 0; i < t->accesses.size(); ++i) {
      if (t->accesses[i].key_resolved) {
        t->accesses[i].partition = exec::ResolvePartition(deps, *t, i);
      }
    }
    TwoRegionPlan plan;
    if (!t->force_fallback) {
      plan = txn::DependencyAnalysis::Plan(
          *t, [this](const RecordId& rid) { return partitioner_->IsHot(rid); });
    } else {
      plan.fallback_reason = "co-location violated under live layout";
    }
    if (!plan.two_region) {
      ++counters_.fallback_txns;
      // Plain 2PL runs its own Setup, so a fallback attempt pays txn_setup
      // a second time. A known overcharge: removing it re-baselines every
      // Chiller row, so it waits for that re-baseline.
      cc::TwoPhaseLocking::Run(this, std::move(t), std::move(done));
      return;
    }
    ++counters_.two_region_txns;
    std::make_shared<ChillerRun>(this, std::move(t), std::move(plan),
                                 std::move(done))
        ->Start();
  };
  exec::Setup(exec::Deps{cluster_, partitioner_}, raw, coord,
              std::move(decide));
}

}  // namespace chiller::core
