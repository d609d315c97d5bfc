// Shared execution primitives used by 2PL, OCC and Chiller's two-region
// protocol: NO_WAIT lock acquisition + record fetch (local or via one-sided
// RDMA), buffered-write apply + unlock, and abort release.
#ifndef CHILLER_CC_EXEC_COMMON_H_
#define CHILLER_CC_EXEC_COMMON_H_

#include <map>
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

/// Applies buffered effects and releases locks for the lock-holding
/// accesses in `indices`; cb() after every completion (local and remote)
/// lands. Locks of read-only holders are released without a version bump.
void ApplyAndUnlock(const Deps& d, txn::Transaction* t,
                    const std::vector<size_t>& indices, Engine* eng,
                    sim::Task cb);

/// Releases locks without applying anything (abort path).
void Release(const Deps& d, txn::Transaction* t,
             const std::vector<size_t>& indices, Engine* eng,
             sim::Task cb);

/// Indices of accesses currently holding locks.
std::vector<size_t> HeldIndices(const txn::Transaction& t);

/// Replication payloads for the written holders among `indices`, grouped by
/// partition.
std::map<PartitionId, std::vector<ReplUpdate>> CollectWrites(
    const txn::Transaction& t, const std::vector<size_t>& indices);

/// True if the committed transaction touched more than one partition.
bool IsDistributed(const txn::Transaction& t);

/// Runs the deferred on_apply closures of Chiller's outer phase 2 against
/// the buffered copies (CPU cost is charged by the caller).
void ApplyDeferred(txn::Transaction* t, const std::vector<int>& deferred);

}  // namespace chiller::cc::exec

#endif  // CHILLER_CC_EXEC_COMMON_H_
