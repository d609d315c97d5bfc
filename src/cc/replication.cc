#include "cc/replication.h"

#include <memory>
#include <utility>

#include "common/logging.h"

namespace chiller::cc {

void ReplicationManager::ApplyAtReplica(storage::PartitionStore* store,
                                        const std::vector<ReplUpdate>& ups) {
  for (const ReplUpdate& u : ups) store->PrefetchBucket(u.rid);
  for (const ReplUpdate& u : ups) store->PrefetchRecord(u.rid);
  for (const ReplUpdate& u : ups) {
    switch (u.kind) {
      case ReplUpdate::Kind::kPut: {
        storage::Record* rec = store->Find(u.rid);
        if (rec != nullptr) {
          *rec = u.image;
        } else {
          CHILLER_CHECK(store->Insert(u.rid, u.image).ok());
        }
        break;
      }
      case ReplUpdate::Kind::kErase:
        // The stream is FIFO, so the record must exist at the replica.
        CHILLER_CHECK(store->Erase(u.rid).ok());
        break;
    }
  }
}

void ReplicationManager::Replicate(EngineId src_engine, PartitionId p,
                                   std::vector<ReplUpdate> updates,
                                   EngineId ack_engine,
                                   sim::Task on_done) {
  const net::Topology& topo = cluster_->topology();
  const uint32_t replicas = topo.num_replicas();
  if (replicas == 0) {
    cluster_->sim()->Schedule(0, std::move(on_done));
    return;
  }
  ++batches_sent_[cluster_->sim()->current_domain()];

  size_t bytes = 64;
  for (const auto& u : updates) bytes += 24 + u.image.wire_bytes();
  const SimTime apply_cost =
      cluster_->costs().replica_apply *
      std::max<SimTime>(1, static_cast<SimTime>(updates.size()));

  // One allocation shared by every replica's apply and ack.
  struct Batch {
    std::vector<ReplUpdate> updates;
    uint32_t pending;
    sim::Task on_done;
  };
  auto batch = std::make_shared<Batch>(
      Batch{std::move(updates), replicas, std::move(on_done)});

  for (uint32_t i = 1; i <= replicas; ++i) {
    const EngineId replica_engine = topo.ReplicaEngine(p, i);
    storage::PartitionStore* store =
        cluster_->engine(replica_engine)->replica(p);
    // The replica's domain owns the store: address-only hints from here.
    for (const ReplUpdate& u : batch->updates) store->PrefetchBucket(u.rid);
    cluster_->rpc()->Send(
        src_engine, replica_engine, bytes, apply_cost,
        [this, store, batch, replica_engine, ack_engine]() {
          ApplyAtReplica(store, batch->updates);
          // Ack goes to the coordinator of the transaction, not (necessarily)
          // back to the sender — the Figure 6 inner-region protocol.
          cluster_->rpc()->Send(replica_engine, ack_engine, 32, 0, [batch]() {
            CHILLER_CHECK(batch->pending > 0);
            if (--batch->pending == 0) batch->on_done();
          });
        });
  }
}

}  // namespace chiller::cc
