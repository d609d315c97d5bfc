// Shared execution primitives used by 2PL, OCC and Chiller's two-region
// protocol: the attempt lifecycle, NO_WAIT lock acquisition + record fetch
// (local or via one-sided RDMA), buffered-write apply + unlock, and abort
// release.
//
// Attempt lifecycle. Every attempt of every protocol runs the same steps,
// each written once here:
//   setup     Setup: one txn_setup slice on the coordinator, in which every
//             key whose pk-deps are met is resolved.
//   prologue  RunOp: one op_logic slice per op on the acting engine. A dead
//             skip group skips the op, a failed guard raises a user abort,
//             and otherwise the op's key is resolved if it was not yet, and
//             its partition placed (Placement says which ops are placed).
//   access    the protocol's own store primitive (LockAndFetch,
//             FetchVersioned, the OCC validations, Chiller's inner region).
//   commit    Commit: replicate the held write set, one round per written
//             partition, then ApplyAndUnlock it once every round acked.
//   abort     Abort: Release the held set; nothing reached a primary, so
//             the release is the whole rollback.
//   end       both Commit and Abort end the attempt: stamp its outcome and
//             end_time, then run its `done`.
// The protocols differ only in which engine runs an op, which access
// primitive it uses, and what happens between the last access and Commit
// (OCC validates; Chiller runs its inner region).
//
// Store steps. Each primitive that touches a record (LockAndFetch,
// FetchVersioned, ValidateLockWrite, ValidateRead) is one store step plus
// one finish step, each written once. The store step runs where the record
// lives and writes its outcome into the access (lock_held, bucket_piggyback,
// the buffered image, missing, observed_version). When the record is on the
// acting engine's own partition, store and finish steps run back to back in
// one op_local CPU slice. Otherwise the store step is the remote_op of one
// one-sided RDMA verb, and the finish step runs in an op_logic slice at the
// initiator once the response lands. Local and remote accesses therefore
// leave identical access and lock state; only their timing differs.
//
// Held set. HeldIndices is the one definition of what a commit or an abort
// must visit: every access with `lock_held`, and every `bucket_piggyback`
// access (a different key in a bucket an earlier access of the same
// transaction already locked). A piggybacked write must be applied in the
// same ApplyAndUnlock as its holder's unlock, never after it: once the
// bucket is unlocked, another transaction may overwrite the record.
// Applying a piggybacked write clears its flag, so a later commit step of
// the same transaction neither applies nor replicates it again. Chiller
// relies on both rules: its inner region commits HeldIndices(t, inner_ops)
// on the inner host, before the outer phase 2 commits the rest.
#ifndef CHILLER_CC_EXEC_COMMON_H_
#define CHILLER_CC_EXEC_COMMON_H_

#include <memory>
#include <utility>
#include <vector>

#include "cc/cluster.h"
#include "cc/engine.h"
#include "cc/replication.h"
#include "partition/lookup_table.h"
#include "sim/fn.h"
#include "txn/transaction.h"

namespace chiller::cc::exec {

/// Dependencies threaded through the helpers.
struct Deps {
  Cluster* cluster;
  const partition::RecordPartitioner* partitioner;
};

/// Placement of op `i`'s record: the partitioner's placement, or the
/// coordinator's own partition for fully-replicated read-only tables.
PartitionId ResolvePartition(const Deps& d, const txn::Transaction& t,
                             size_t i);

/// Setup: charges one txn_setup slice on the coordinator `eng`, resolves
/// every key whose pk-deps are met, and runs `then` in the same slice.
template <typename F>
void Setup(const Deps& d, txn::Transaction* t, Engine* eng, F then) {
  eng->cpu()->Submit(d.cluster->costs().txn_setup,
                     [t, then = std::move(then)]() mutable {
                       t->ResolveReadyKeys();
                       then();
                     });
}

/// Which ops the prologue places. 2PL and OCC place every op when it runs,
/// so a relayout between setup and the op is seen. Chiller places the keys
/// resolved at setup when it plans, and at op time only keys that resolve
/// late (their pk-deps ran after setup).
enum class Placement { kEveryOp, kLateKeys };

/// What the prologue decided for an op.
enum class OpStep {
  kSkip,       ///< its skip group is dead: go on to the next op
  kUserAbort,  ///< its guard failed: abort the attempt (Outcome::kAbortUser)
  kAccess,     ///< key resolved and partition placed: access the record
};

/// The prologue of op `i`; see RunOp.
OpStep Prologue(const Deps& d, txn::Transaction* t, size_t i,
                Placement placement);

/// Charges op `i`'s op_logic slice on `eng` and, inside it, runs the
/// prologue and then `body(step)`.
template <typename F>
void RunOp(const Deps& d, txn::Transaction* t, size_t i, Engine* eng,
           Placement placement, F body) {
  eng->cpu()->Submit(d.cluster->costs().op_logic,
                     [d, t, i, placement, body = std::move(body)]() mutable {
                       body(Prologue(d, t, i, placement));
                     });
}

/// Commit: replicates the held write set from `eng`, one round per written
/// partition in ascending partition order with every ack back at `eng`,
/// then applies and unlocks the held set once every round acked (at once
/// when nothing was written), and ends the attempt as committed. With
/// `trace_2pc`, a traced attempt records 2PL's commit detail: a
/// `2pc_replicate` instant per round and the `commit_phase` span, both from
/// the moment Commit is called.
void Commit(const Deps& d, ReplicationManager* repl,
            const std::shared_ptr<txn::Transaction>& t, Engine* eng,
            bool trace_2pc, sim::Task done);

/// Abort: releases the held set from `eng`, then ends the attempt with
/// `outcome` (not kCommitted).
void Abort(const Deps& d, const std::shared_ptr<txn::Transaction>& t,
           Engine* eng, txn::Outcome outcome, sim::Task done);

/// Acquires the NO_WAIT lock for op `i` and fetches its record image into
/// the access's buffered copy, acting from `eng` (a local store access when
/// the record's partition equals eng->id(), a one-sided CAS+READ otherwise).
///
/// Requires: guard already evaluated, key resolved, access partition set.
/// Handles repeated access to a record the transaction already locked
/// (alias): the earlier holder's buffered copy is reused, which provides
/// read-own-writes. The first access must have requested the strongest
/// lock mode (paper Figure 4's read_with_wl) — checked.
///
/// `apply_inline`: run the op's on_apply immediately after the fetch (all
/// protocols except deferred outer-phase-2 ops in Chiller).
/// `cb(ok)`: ok=false means NO_WAIT conflict; the lock was not acquired.
void LockAndFetch(const Deps& d, txn::Transaction* t, size_t i, Engine* eng,
                  bool apply_inline, sim::Fn<void(bool)> cb);

/// OCC execution-phase read: fetches the record image and its version stamp
/// without taking any lock.
void FetchVersioned(const Deps& d, txn::Transaction* t, size_t i, Engine* eng,
                    sim::Task cb);

/// OCC validation: exclusively locks op `i`'s bucket and verifies the
/// version still matches the execution-phase observation. cb(ok).
void ValidateLockWrite(const Deps& d, txn::Transaction* t, size_t i,
                       Engine* eng, sim::Fn<void(bool)> cb);

/// OCC read validation: verifies version unchanged and not write-locked.
void ValidateRead(const Deps& d, txn::Transaction* t, size_t i, Engine* eng,
                  sim::Fn<void(bool)> cb);

/// Applies buffered effects and releases locks for the held accesses in
/// `indices` (see "Held set" above; ascending, as HeldIndices gives them);
/// cb() after every completion (local and remote) lands. Locks of
/// read-only holders are released without a version bump.
void ApplyAndUnlock(const Deps& d, txn::Transaction* t,
                    const std::vector<size_t>& indices, Engine* eng,
                    sim::Task cb);

/// Releases locks without applying anything (abort path).
void Release(const Deps& d, txn::Transaction* t,
             const std::vector<size_t>& indices, Engine* eng,
             sim::Task cb);

/// Indices of the held accesses, ascending (see "Held set" above).
std::vector<size_t> HeldIndices(const txn::Transaction& t);

/// The held accesses among `ops`, in `ops` order.
std::vector<size_t> HeldIndices(const txn::Transaction& t,
                                const std::vector<int>& ops);

/// Replication payloads grouped by partition, in ascending partition order;
/// each partition's updates keep access order.
using WritesByPartition =
    std::vector<std::pair<PartitionId, std::vector<ReplUpdate>>>;

/// Replication payloads for the written holders among `indices`.
WritesByPartition CollectWrites(const txn::Transaction& t,
                                const std::vector<size_t>& indices);

/// True if the committed transaction touched more than one partition.
bool IsDistributed(const txn::Transaction& t);

/// Runs the deferred on_apply closures of Chiller's outer phase 2 against
/// the buffered copies (CPU cost is charged by the caller).
void ApplyDeferred(txn::Transaction* t, const std::vector<int>& deferred);

}  // namespace chiller::cc::exec

#endif  // CHILLER_CC_EXEC_COMMON_H_
