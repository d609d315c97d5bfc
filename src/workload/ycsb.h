// Synthetic YCSB-style key-value workload with tunable contention.
//
// One table of 8-field records, range-partitioned by key. Each transaction
// touches `ops_per_txn` distinct keys: per-operation Zipf skew (`theta`),
// read/update mix (`read_ratio`), and a per-transaction probability of
// spanning partitions (`distributed_ratio`). These are exactly the
// sensitivity-analysis knobs of the paper's evaluation grid — skew drives
// record contention, the distributed ratio drives the Figure 10 x-axis —
// exposed as one named workload so new scenario families need no new
// generator. The first `hot_keys_per_partition` Zipf ranks of each
// partition are flagged hot, which is what lets Chiller's two-region
// planner engage on this workload.
#ifndef CHILLER_WORKLOAD_YCSB_H_
#define CHILLER_WORKLOAD_YCSB_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cc/driver.h"
#include "common/zipf.h"
#include "partition/lookup_table.h"
#include "partition/stats_collector.h"
#include "storage/record.h"
#include "txn/transaction.h"

namespace chiller::workload::ycsb {

inline constexpr TableId kMain = 0;

std::vector<storage::TableSpec> Schema();

/// Key layout: partition * keys_per_partition + zipf rank (rank 0 is the
/// partition's hottest key). Placement is recoverable from the key alone.
class YcsbPartitioner : public partition::RecordPartitioner {
 public:
  YcsbPartitioner(uint32_t num_partitions, uint64_t keys_per_partition,
                  uint64_t hot_keys_per_partition)
      : num_partitions_(num_partitions),
        keys_per_partition_(keys_per_partition),
        hot_keys_(hot_keys_per_partition) {}

  PartitionId PartitionOf(const RecordId& rid) const override {
    return static_cast<PartitionId>((rid.key / keys_per_partition_) %
                                    num_partitions_);
  }
  bool IsHot(const RecordId& rid) const override {
    return rid.key % keys_per_partition_ < hot_keys_;
  }
  /// Range placement + rank threshold need no per-record entries.
  size_t LookupEntries() const override { return 0; }

 private:
  uint32_t num_partitions_;
  uint64_t keys_per_partition_;
  uint64_t hot_keys_;
};

/// Builds one transaction. params = [num_ops, (key, is_write)...].
std::unique_ptr<txn::Transaction> BuildYcsbTxn(std::vector<int64_t> params);

class YcsbWorkload : public cc::WorkloadSource {
 public:
  struct Options {
    uint32_t num_partitions = 8;
    uint64_t keys_per_partition = 10000;
    /// Zipf skew of per-partition key popularity (0 = uniform).
    double theta = 0.9;
    /// Per-operation probability of a read (vs. a read-modify-write).
    double read_ratio = 0.5;
    /// Probability that a transaction draws keys from the whole cluster
    /// instead of only its home partition.
    double distributed_ratio = 0.1;
    uint32_t ops_per_txn = 10;
    /// Zipf ranks below this are flagged hot on every partition.
    uint64_t hot_keys_per_partition = 4;
    int64_t initial_value = 0;
    /// Phase-shifting hot set: every `shift_every` of simulated time the
    /// per-partition popularity ranking rotates by `shift_stride` keys
    /// (rank r maps to key (r + windows_elapsed * stride) mod
    /// keys_per_partition), so yesterday's cold keys become today's hot
    /// ones — the diurnal/hot-set-rotation regime the adaptive
    /// controller's re-arm exists for. 0 (the default) disables shifting;
    /// enabling it requires SetClock. Retries share the first attempt's op
    /// list, so a transaction straddling a shift keeps its keys.
    SimTime shift_every = 0;
    uint64_t shift_stride = 0;
  };

  explicit YcsbWorkload(Options options);

  const Options& options() const { return options_; }

  /// Binds the simulated-time source the shifting hot set rotates on
  /// (typically the cluster's simulator clock). Draws happen in engine
  /// events, where now() is shard-invariant, so shifting workloads stay
  /// byte-identical for any shard count.
  void SetClock(std::function<SimTime()> clock) { clock_ = std::move(clock); }

  /// Loads every key of every partition with an 8-field record.
  void ForEachRecord(
      const std::function<void(const RecordId&, const storage::Record&)>&
          load) const;

  /// Access traces for the partitioning pipeline (same sampling as Next).
  std::vector<partition::TxnAccessTrace> GenerateTrace(size_t n, Rng* rng);

  std::unique_ptr<txn::Transaction> Next(PartitionId home, Rng* rng) override;
  uint32_t NumClasses() const override { return 1; }
  std::string ClassName(uint32_t) const override { return "YcsbMix"; }

 private:
  /// Distinct keys for one transaction homed at `home`.
  std::vector<Key> SampleKeys(PartitionId home, Rng* rng);

  Options options_;
  ZipfGenerator zipf_;
  std::function<SimTime()> clock_;  ///< unset => rotation pinned at 0
};

}  // namespace chiller::workload::ycsb

#endif  // CHILLER_WORKLOAD_YCSB_H_
