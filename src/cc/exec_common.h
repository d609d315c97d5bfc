// Shared execution primitives used by 2PL, OCC and Chiller's two-region
// protocol: NO_WAIT lock acquisition + record fetch (local or via one-sided
// RDMA), buffered-write apply + unlock, abort release, and the commit's
// replicate-then-apply fan-in.
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

#include <functional>
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
/// `indices` (see "Held set" above); cb() after every completion (local and
/// remote) lands. Locks of read-only holders are released without a version
/// bump.
void ApplyAndUnlock(const Deps& d, txn::Transaction* t,
                    const std::vector<size_t>& indices, Engine* eng,
                    sim::Task cb);

/// Releases locks without applying anything (abort path).
void Release(const Deps& d, txn::Transaction* t,
             const std::vector<size_t>& indices, Engine* eng,
             sim::Task cb);

/// Indices of the held accesses (see "Held set" above).
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

/// The commit fan-in of 2PL, OCC and Chiller's outer phase 2: replicates
/// the writes among `indices` from engine `eng`, one round per written
/// partition in ascending partition order with every ack back at `eng`, and
/// runs `then` once every round acked — inline when nothing was written.
/// `on_round(p)`, when set, runs just before partition p's round is sent.
void ReplicateWrites(ReplicationManager* repl, const txn::Transaction& t,
                     const std::vector<size_t>& indices, EngineId eng,
                     sim::Task then,
                     const std::function<void(PartitionId)>& on_round = {});

/// True if the committed transaction touched more than one partition.
bool IsDistributed(const txn::Transaction& t);

/// Runs the deferred on_apply closures of Chiller's outer phase 2 against
/// the buffered copies (CPU cost is charged by the caller).
void ApplyDeferred(txn::Transaction* t, const std::vector<int>& deferred);

}  // namespace chiller::cc::exec

#endif  // CHILLER_CC_EXEC_COMMON_H_
