// Full TPC-C transaction mix as declarative stored procedures.
#ifndef CHILLER_WORKLOAD_TPCC_TPCC_WORKLOAD_H_
#define CHILLER_WORKLOAD_TPCC_TPCC_WORKLOAD_H_

#include <memory>
#include <string>
#include <vector>

#include "cc/driver.h"
#include "partition/stats_collector.h"
#include "txn/transaction.h"
#include "workload/tpcc/tpcc_gen.h"
#include "workload/tpcc/tpcc_schema.h"

namespace chiller::workload::tpcc {

/// Transaction class ids (indices into RunStats).
enum TxnClass : uint32_t {
  kNewOrderTxn = 0,
  kPaymentTxn = 1,
  kOrderStatusTxn = 2,
  kDeliveryTxn = 3,
  kStockLevelTxn = 4,
};

/// Builders: parameters fully describe a transaction (layouts in the .cc).
std::unique_ptr<txn::Transaction> BuildNewOrder(std::vector<int64_t> params);
std::unique_ptr<txn::Transaction> BuildPayment(std::vector<int64_t> params);
std::unique_ptr<txn::Transaction> BuildOrderStatus(
    std::vector<int64_t> params);
std::unique_ptr<txn::Transaction> BuildDelivery(std::vector<int64_t> params);
std::unique_ptr<txn::Transaction> BuildStockLevel(
    std::vector<int64_t> params);

/// The TPC-C workload source: standard mix, spec NURand skew, one
/// warehouse per engine/partition (Section 7.3.1).
class TpccWorkload : public cc::WorkloadSource {
 public:
  struct Options {
    uint32_t num_warehouses = 8;
    /// Probability that a NewOrder has at least one remote item
    /// (TPC-C default ~10%); the Figure 10 sweep varies this.
    double remote_new_order_prob = 0.10;
    /// Probability that Payment pays a customer of a remote warehouse
    /// (TPC-C default 15%).
    double remote_payment_prob = 0.15;
    /// Mix in percent; must sum to 100. Defaults are the standard mix.
    uint32_t pct_new_order = 45;
    uint32_t pct_payment = 43;
    uint32_t pct_order_status = 4;
    uint32_t pct_delivery = 4;
    uint32_t pct_stock_level = 4;
    /// Fraction of NewOrders rolled back due to an invalid item (spec: 1%).
    double invalid_item_prob = 0.01;
    /// StockLevel examines this many recent orders (spec: 20; scaled so a
    /// simulated StockLevel stays ~40 operations).
    uint32_t stock_level_orders = 4;
  };

  explicit TpccWorkload(Options options);

  const Options& options() const { return options_; }

  std::unique_ptr<txn::Transaction> Next(PartitionId home, Rng* rng) override;
  uint32_t NumClasses() const override { return 5; }
  std::string ClassName(uint32_t cls) const override;

  /// Access-set traces for the partitioning pipeline (no execution needed):
  /// the record sets a sampled run of the mix would touch.
  std::vector<partition::TxnAccessTrace> GenerateTrace(size_t n, Rng* rng);

 private:
  std::vector<int64_t> NewOrderParams(uint64_t w, Rng* rng);
  std::vector<int64_t> PaymentParams(uint64_t w, Rng* rng);

  Options options_;
  /// Per-warehouse history-key sequence; per-(w,d) delivery frontier and
  /// issued-order counters (generator-side bookkeeping, not database state).
  std::vector<uint64_t> history_seq_;
  std::vector<uint64_t> delivery_next_;
  std::vector<uint64_t> orders_issued_;
};

}  // namespace chiller::workload::tpcc

#endif  // CHILLER_WORKLOAD_TPCC_TPCC_WORKLOAD_H_
