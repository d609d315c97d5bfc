// Cluster assembly: simulator + network + engines + primary/replica stores.
#ifndef CHILLER_CC_CLUSTER_H_
#define CHILLER_CC_CLUSTER_H_

#include <memory>
#include <vector>

#include "cc/engine.h"
#include "migrate/relayout.h"
#include "net/network.h"
#include "obs/metrics_registry.h"
#include "obs/trace_recorder.h"
#include "net/rdma.h"
#include "net/rpc.h"
#include "net/topology.h"
#include "partition/lookup_table.h"
#include "sim/scheduler.h"
#include "storage/partition_store.h"
#include "storage/record.h"

namespace chiller::cc {

/// CPU cost model for engine work (ns). Calibrated so a local TPC-C
/// NewOrder costs ~15 us of engine CPU, in line with in-memory OLTP
/// engines of the paper's era.
struct ExecCosts {
  SimTime txn_setup = 400;     ///< planning + context init per attempt
  SimTime op_local = 300;      ///< local lock+read (or insert slot) work
  SimTime op_logic = 120;      ///< closure computation per op
  SimTime op_commit = 150;     ///< per-record write-back / unlock work
  SimTime replica_apply = 200; ///< per-record apply at a replica
  SimTime inner_dispatch = 250;///< marshalling the inner-region RPC
  /// Retry backoff after a conflict abort: fixed + uniform jitter.
  SimTime retry_backoff_fixed = 1000;
  SimTime retry_backoff_jitter = 3000;
};

/// Everything a protocol needs to run transactions on the simulated cluster.
struct ClusterConfig {
  net::Topology topology;
  net::NetworkConfig network;
  ExecCosts costs;
  std::vector<storage::TableSpec> schema;
  /// Simulator shards: 1 runs the classic single-threaded event loop; > 1
  /// runs the same event semantics across real threads (sim::
  /// ShardedSimulator), byte-identical for any value.
  uint32_t shards = 1;
  /// Trace every engine's k-th logical transaction when
  /// k % trace_sample_every == 0; 0 disables tracing entirely.
  uint32_t trace_sample_every = 0;
};

/// Owns the simulator, fabric, engines and all partition stores (primaries
/// and replicas), and loads data according to a RecordPartitioner.
class Cluster {
 public:
  explicit Cluster(ClusterConfig config);

  /// The scheduling interface — deliberately not a concrete simulator, so
  /// protocol code works unchanged whether events run on one thread or
  /// many.
  sim::Scheduler* sim() { return sim_.get(); }
  net::Network* network() { return network_.get(); }
  net::RdmaFabric* rdma() { return rdma_.get(); }
  net::RpcLayer* rpc() { return rpc_.get(); }
  const net::Topology& topology() const { return config_.topology; }
  const ExecCosts& costs() const { return config_.costs; }
  const ClusterConfig& config() const { return config_; }

  Engine* engine(EngineId e) { return engines_[e].get(); }
  uint32_t num_engines() const {
    return static_cast<uint32_t>(engines_.size());
  }

  /// Bucket-granular migration locks shared between the live migrator
  /// (src/migrate) and the execution protocols: an access landing in an
  /// in-flight relayout bucket aborts its attempt instead of racing the
  /// record move. Quiet (ever_active() false) unless a live migration has
  /// run on this cluster.
  migrate::BucketLockTable* bucket_locks() { return &bucket_locks_; }
  const migrate::BucketLockTable* bucket_locks() const {
    return &bucket_locks_;
  }

  storage::PartitionStore* primary(PartitionId p) {
    return primaries_[p].get();
  }
  /// Replica copy `i` (1-based, < replication_degree) of partition `p`.
  storage::PartitionStore* replica(PartitionId p, uint32_t i) {
    return replica_stores_[p][i - 1].get();
  }

  /// Inserts a record into the primary of its partition and all replicas.
  void LoadRecord(const RecordId& rid, const storage::Record& record,
                  const partition::RecordPartitioner& partitioner);

  /// Inserts a copy of the record into every store (every primary and every
  /// replica) — for fully replicated read-only tables like TPC-C ITEM.
  void LoadEverywhere(const RecordId& rid, const storage::Record& record);

  /// Migration path: removes the record from primary `from` and returns it.
  /// Replica copies are untouched — the caller resyncs them through the
  /// ReplicationManager (see migrate::LiveMigrator).
  StatusOr<storage::Record> ExtractRecord(const RecordId& rid,
                                          PartitionId from);

  /// Migration path: installs an extracted record at primary `to`.
  Status InstallRecord(const RecordId& rid, PartitionId to,
                       storage::Record record);

  /// Total committed-state records across primaries (sanity checks).
  size_t TotalPrimaryRecords() const;

  /// Trace recorder for this cluster. Always constructed; inactive (every
  /// record call is a no-op) unless config.trace_sample_every > 0.
  obs::TraceRecorder* trace() { return trace_.get(); }
  const obs::TraceRecorder* trace() const { return trace_.get(); }
  /// Shared ownership handle so a ScenarioResult can outlive the cluster.
  std::shared_ptr<const obs::TraceRecorder> shared_trace() const {
    return trace_;
  }

  /// Named metrics shared by the driver, load models, scheduler and the
  /// migration machinery.
  obs::MetricsRegistry* metrics() { return metrics_.get(); }

 private:
  ClusterConfig config_;
  migrate::BucketLockTable bucket_locks_;
  std::unique_ptr<sim::Scheduler> sim_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<net::RdmaFabric> rdma_;
  std::unique_ptr<net::RpcLayer> rpc_;
  std::shared_ptr<obs::TraceRecorder> trace_;
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  std::vector<std::unique_ptr<Engine>> engines_;
  std::vector<std::unique_ptr<storage::PartitionStore>> primaries_;
  std::vector<std::vector<std::unique_ptr<storage::PartitionStore>>>
      replica_stores_;
};

}  // namespace chiller::cc

#endif  // CHILLER_CC_CLUSTER_H_
