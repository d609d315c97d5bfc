// Replication of committed updates to partition replicas.
#ifndef CHILLER_CC_REPLICATION_H_
#define CHILLER_CC_REPLICATION_H_

#include <vector>

#include "cc/cluster.h"
#include "common/types.h"
#include "sim/fn.h"
#include "sim/per_domain.h"
#include "storage/record.h"

namespace chiller::cc {

/// One replicated effect on a record.
struct ReplUpdate {
  enum class Kind { kPut, kErase };
  Kind kind = Kind::kPut;
  RecordId rid;
  storage::Record image;  ///< new record image for kPut
};

/// Ships update streams to the replicas of a partition.
///
/// Two uses, per paper Section 5:
///  - outer region / baselines: the coordinator replicates its write set
///    before releasing locks, and waits for acks itself;
///  - inner region (Figure 6): the *inner host* streams updates to its
///    replicas without waiting, and the replicas ack the *coordinator* —
///    correctness rests on per-queue-pair in-order delivery, which
///    net::Network guarantees.
class ReplicationManager {
 public:
  explicit ReplicationManager(Cluster* cluster)
      : cluster_(cluster),
        batches_sent_(cluster->topology().num_nodes + 1u) {}

  /// Sends `updates` of partition `p` from `src_engine` to each replica of
  /// `p`. Each replica applies the batch and acks `ack_engine`; `on_done`
  /// runs at ack_engine once all replicas acked. With zero replicas,
  /// `on_done` fires on the next simulator step.
  void Replicate(EngineId src_engine, PartitionId p,
                 std::vector<ReplUpdate> updates, EngineId ack_engine,
                 sim::Task on_done);

  uint64_t batches_sent() const { return batches_sent_.Sum(); }

  /// Applies one batch to a replica store, in batch order: a put overwrites
  /// or inserts, an erase removes. Loads every bucket, then every block,
  /// before the first update; runs in the replica's own domain.
  static void ApplyAtReplica(storage::PartitionStore* store,
                             const std::vector<ReplUpdate>& updates);

 private:
  Cluster* cluster_;
  sim::PerDomain<uint64_t> batches_sent_;  // summed on read
};

}  // namespace chiller::cc

#endif  // CHILLER_CC_REPLICATION_H_
