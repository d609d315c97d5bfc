// Synthetic Instacart-like grocery workload (substitution for the real
// Instacart 2017 dataset — see DESIGN.md section 1).
//
// Reproduces the two measured properties the paper's partitioning
// experiments depend on:
//  - heavy item-popularity skew: the top product appears in ~15% of
//    baskets, the second in ~8%, with a Zipf tail (Section 7.2.1), which
//    translates directly into stock-record contention;
//  - cross-category baskets (~10 items spanning several aisles), which
//    defeat range partitioning and give Schism's co-access graph no clean
//    cut.
#ifndef CHILLER_WORKLOAD_INSTACART_H_
#define CHILLER_WORKLOAD_INSTACART_H_

#include <memory>
#include <string>
#include <vector>

#include "cc/driver.h"
#include "common/zipf.h"
#include "partition/chiller_partitioner.h"
#include "partition/hot_decorator.h"
#include "partition/schism.h"
#include "partition/stats_collector.h"
#include "storage/record.h"
#include "txn/transaction.h"

namespace chiller::workload::instacart {

/// Table ids and layouts.
enum Table : TableId {
  kStock = 0,  // fields: quantity, ytd   key: product id
  kOrder = 1,  // fields: num_items       key: home partition * stride + seq
};

/// Order rows are created at the coordinator's partition (like TPC-C orders
/// at their home warehouse); the key encodes that placement.
inline constexpr Key kOrderStride = 1ULL << 40;

inline Key OrderKeyFor(PartitionId home, uint64_t seq) {
  return static_cast<Key>(home) * kOrderStride + seq;
}
inline PartitionId HomeOfOrder(Key order_key) {
  return static_cast<PartitionId>(order_key / kOrderStride);
}

std::vector<storage::TableSpec> Schema();

/// Partition rule shared by every Instacart layout: order rows live on the
/// partition their key encodes; everything else hashes. Pass as the
/// fallback of LookupPartitioner / the custom fn of HashPartitioner.
PartitionId InstacartFallback(const RecordId& rid, uint32_t k);

/// The NewOrder-style grocery checkout of Section 7.2.1: decrements the
/// stock of every basket item and inserts an order row at the home
/// partition ("reads the stock values of a number of items, subtracts each
/// one by 1, and inserts a new record in the order table").
/// Params: [home, order_seq, num_items, item...].
std::unique_ptr<txn::Transaction> BuildOrderTxn(std::vector<int64_t> params);

/// Generates baskets with the popularity profile above. Also emits access
/// traces for the partitioning pipelines.
class InstacartWorkload : public cc::WorkloadSource {
 public:
  struct Options {
    uint64_t num_products = 49688;  // catalog size of the real dataset
    uint32_t num_aisles = 134;
    double mean_basket = 10.0;
    /// Inclusion probabilities of the two headline items (15% / 8%).
    double top1_basket_share = 0.15;
    double top2_basket_share = 0.08;
    /// Zipf skew of the remaining catalog.
    double tail_theta = 0.6;
    /// Fraction of each basket drawn from the basket's theme aisles
    /// (cross-category structure). Real grocery baskets are dominated by
    /// one or two departments with a long cross-category tail.
    double theme_fraction = 0.85;
    /// Probability that the basket has a single theme aisle (vs. two).
    double single_theme_prob = 0.6;
    int64_t initial_stock = 1'000'000'000;
    uint64_t seed = 42;
  };

  explicit InstacartWorkload(Options options);

  const Options& options() const { return options_; }

  /// Loads stock records (orders are created at run time).
  void ForEachRecord(
      const std::function<void(const RecordId&, const storage::Record&)>&
          load) const;

  /// Samples one basket of product ids (no duplicates).
  std::vector<uint64_t> SampleBasket(Rng* rng);

  /// Access traces for the partitioner training phase: the stock writes
  /// (order inserts are new records and appear in no trace, as in any real
  /// workload capture).
  std::vector<partition::TxnAccessTrace> GenerateTrace(size_t n, Rng* rng);

  std::unique_ptr<txn::Transaction> Next(PartitionId home, Rng* rng) override;
  uint32_t NumClasses() const override { return 1; }
  std::string ClassName(uint32_t) const override { return "GroceryOrder"; }

 private:
  uint64_t AisleOf(uint64_t product) const;

  Options options_;
  std::unique_ptr<AliasSampler> popularity_;
  std::vector<double> weights_;
  std::vector<uint64_t> order_seq_;  // per home partition
};

/// The three layouts of the paper's Figures 7/8, built from one trace and
/// all exposing the same hot-record set, so the run-time two-region
/// decision is identical across layouts and only placement differs.
struct InstacartLayouts {
  std::unique_ptr<partition::RecordPartitioner> hash_base;
  std::unique_ptr<partition::HotDecorator> hashing;
  partition::SchismPartitioner::Output schism_out;
  std::unique_ptr<partition::HotDecorator> schism;
  partition::ChillerPartitioner::Output chiller_out;
  std::vector<partition::TxnAccessTrace> traces;
  partition::StatsCollector stats;
};

/// Samples `trace_txns` baskets from `workload` with Rng(seed) and builds
/// the layouts for `k` partitions. Deterministic in (workload options, k,
/// trace_txns, seed, hot_threshold) — scenario workers may rebuild layouts
/// independently and get identical placements. `with_schism` = false skips
/// the Schism build (up to 5x costlier than Chiller's, and its output does
/// not feed the other layouts' hot sets): scenarios that run only the hash
/// or chiller layout leave `schism_out`/`schism` null.
InstacartLayouts BuildInstacartLayouts(InstacartWorkload* workload, uint32_t k,
                                       size_t trace_txns, uint64_t seed = 7,
                                       double hot_threshold = 0.01,
                                       bool with_schism = true);

}  // namespace chiller::workload::instacart

#endif  // CHILLER_WORKLOAD_INSTACART_H_
