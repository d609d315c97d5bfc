// Sampling statistics collection — the per-partition managers plus the
// global statistics service of paper Section 4.1.
#ifndef CHILLER_PARTITION_STATS_COLLECTOR_H_
#define CHILLER_PARTITION_STATS_COLLECTOR_H_

#include <unordered_map>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/types.h"
#include "txn/transaction.h"

namespace chiller::partition {

/// One sampled transaction's access set. `write` marks modifying accesses.
/// Identical transactions may be aggregated via `multiplicity`.
struct TxnAccessTrace {
  uint32_t txn_class = 0;
  std::vector<std::pair<RecordId, bool>> accesses;
  uint64_t multiplicity = 1;
};

/// Samples running transactions (or ingests an offline trace) and
/// aggregates per-record read/write frequencies; converts them to the
/// Poisson arrival rates the contention model consumes.
///
/// Two modes:
///  - plain (default): one stream of state; Observe/ObserveTrace may only
///    be called from one thread at a time. Offline consumers use this.
///  - engine-sharded (EnableEngineSharding): Observe routes into a
///    per-home-engine shard — its own sampling RNG, trace list and counts —
///    so commit observers can run concurrently from the sharded simulator's
///    threads. Read accessors merge the shards engine-ascending (each
///    engine's sequence is deterministic), so results are identical for any
///    simulator shard count; they must only be called at control. The merge
///    is incremental: a shard holds only what it sampled since the last
///    merge, and a read that finds new samples adds just those — their
///    counts into the merged records, their traces after the shard's
///    earlier ones (the older merged traces are moved, never copied, so
///    the merged list stays shard-major).
class StatsCollector {
 public:
  /// `sample_rate` in (0, 1]: fraction of transactions recorded. The paper
  /// finds 0.001 sufficient; tests use 1.0 for determinism.
  explicit StatsCollector(double sample_rate = 1.0, uint64_t seed = 1)
      : sample_rate_(sample_rate), seed_(seed), rng_(seed) {}

  /// Switches to engine-sharded mode (idempotent; must happen before the
  /// first Observe). Each engine's sampling RNG is seeded as a pure
  /// function of (seed, engine), decorrelating the streams while keeping
  /// every decision independent of engine interleaving.
  void EnableEngineSharding(uint32_t num_engines);

  /// Retunes the sampling rate mid-stream (a later sample phase may widen
  /// or narrow the net); already-recorded samples are kept.
  void set_sample_rate(double rate) { sample_rate_ = rate; }

  /// Online path: called with an executed transaction; applies sampling.
  /// In engine-sharded mode, safe to call concurrently for different home
  /// engines.
  void Observe(const txn::Transaction& t);

  /// Offline path: ingests a pre-extracted access set (no sampling).
  /// Plain mode only (offline feeds and online sharded sampling never mix).
  void ObserveTrace(const TxnAccessTrace& trace);

  /// Keep every sampled access set, not just the aggregate counts. The
  /// online repartitioning loop needs the raw traces (co-access structure)
  /// to rebuild the workload graph; pure frequency consumers leave this off.
  void set_retain_traces(bool retain) { retain_traces_ = retain; }
  const std::vector<TxnAccessTrace>& traces() const;

  struct RecordCounts {
    uint64_t reads = 0;
    uint64_t writes = 0;
  };

  const std::unordered_map<RecordId, RecordCounts>& records() const;
  uint64_t sampled_txns() const;

  /// Expected accesses to `rid` within a lock window spanning
  /// `window_txns` concurrently running transactions: the time-normalized
  /// access frequency of Section 4.1.
  double LambdaR(const RecordId& rid, double window_txns) const;
  double LambdaW(const RecordId& rid, double window_txns) const;

  /// Contention likelihood of every observed record, descending by Pc.
  std::vector<std::pair<RecordId, double>> ContentionLikelihoods(
      double window_txns) const;

 private:
  /// Per-home-engine sampling state; padded so observers on different
  /// simulator shards never false-share.
  struct alignas(64) Shard {
    Rng rng{1};
    /// Sampled since the last merge: the traces (if retained) and their
    /// counts.
    std::vector<TxnAccessTrace> traces;
    std::unordered_map<RecordId, RecordCounts> records;
    uint64_t sampled = 0;       ///< lifetime
    size_t merged_traces = 0;   ///< this shard's traces in the merged view
  };

  /// Folds what the shards sampled since the last merge into the merged
  /// read view. Control-plane only.
  void MergeShards() const;

  double sample_rate_;
  uint64_t seed_;
  Rng rng_;  ///< sampling stream in plain mode
  bool retain_traces_ = false;
  /// Empty = plain mode. Mutable: a read drains the shards into the merged
  /// view.
  mutable std::vector<Shard> shards_;

  // In plain mode these ARE the state; in sharded mode they are the merged
  // read view, updated lazily.
  mutable std::vector<TxnAccessTrace> traces_;
  mutable std::unordered_map<RecordId, RecordCounts> records_;
  mutable uint64_t sampled_txns_ = 0;
  mutable uint64_t merged_upto_ = 0;  ///< shard samples in the merged view
};

}  // namespace chiller::partition

#endif  // CHILLER_PARTITION_STATS_COLLECTOR_H_
