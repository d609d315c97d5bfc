// WorkloadBundle implementations for the built-in workloads, absorbing the
// wiring that used to be hand-rolled per bench binary (MakeTpccEnv,
// MakeInstacartEnv + BuildInstacartLayouts, and the example mains).
//
// Each factory reads its knobs from ScenarioSpec::options (validated
// against an allow-list, so a typo'd key fails the scenario instead of
// silently running defaults) and returns a self-contained bundle: sweeps
// run bundles on concurrent workers, so factories never share state.
#include "runner/registry.h"

#include <string>
#include <utility>

#include "common/random.h"
#include "workload/flight.h"
#include "workload/instacart.h"
#include "workload/tpcc/tpcc_workload.h"
#include "workload/ycsb.h"

namespace chiller::runner {
namespace {

namespace flight = chiller::workload;
namespace instacart = chiller::workload::instacart;
namespace tpcc = chiller::workload::tpcc;
namespace ycsb = chiller::workload::ycsb;

// ---------------------------------------------------------------------------
// tpcc — one warehouse per engine, partitioned by warehouse (Figures 9/10)
// ---------------------------------------------------------------------------

/// Shared TPC-C knob parsing for the tpcc and adaptive-tpcc factories
/// (same option surface; only the layout differs).
StatusOr<tpcc::TpccWorkload::Options> ParseTpccOptions(
    const ScenarioSpec& spec) {
  const OptionMap& o = spec.options;
  Status st = o.ExpectOnly(
      {"num_warehouses", "remote_new_order_prob", "remote_payment_prob",
       "pct_new_order", "pct_payment", "pct_order_status", "pct_delivery",
       "pct_stock_level", "invalid_item_prob", "stock_level_orders"});
  if (!st.ok()) return st;

  tpcc::TpccWorkload::Options w;
  // The paper's setup: exactly one warehouse per engine/partition.
  w.num_warehouses = static_cast<uint32_t>(
      o.GetInt("num_warehouses", spec.partitions()));
  if (w.num_warehouses == 0) {
    return Status::InvalidArgument("tpcc num_warehouses must be >= 1");
  }
  w.remote_new_order_prob =
      o.GetDouble("remote_new_order_prob", w.remote_new_order_prob);
  w.remote_payment_prob =
      o.GetDouble("remote_payment_prob", w.remote_payment_prob);
  w.pct_new_order =
      static_cast<uint32_t>(o.GetInt("pct_new_order", w.pct_new_order));
  w.pct_payment =
      static_cast<uint32_t>(o.GetInt("pct_payment", w.pct_payment));
  w.pct_order_status =
      static_cast<uint32_t>(o.GetInt("pct_order_status", w.pct_order_status));
  w.pct_delivery =
      static_cast<uint32_t>(o.GetInt("pct_delivery", w.pct_delivery));
  w.pct_stock_level =
      static_cast<uint32_t>(o.GetInt("pct_stock_level", w.pct_stock_level));
  w.invalid_item_prob =
      o.GetDouble("invalid_item_prob", w.invalid_item_prob);
  w.stock_level_orders = static_cast<uint32_t>(
      o.GetInt("stock_level_orders", w.stock_level_orders));
  if (w.pct_new_order + w.pct_payment + w.pct_order_status + w.pct_delivery +
          w.pct_stock_level !=
      100) {
    return Status::InvalidArgument("tpcc mix percentages must sum to 100");
  }
  const std::pair<const char*, double> probs[] = {
      {"remote_new_order_prob", w.remote_new_order_prob},
      {"remote_payment_prob", w.remote_payment_prob},
      {"invalid_item_prob", w.invalid_item_prob},
  };
  for (const auto& [name, p] : probs) {
    if (!(p >= 0.0 && p <= 1.0)) {
      return Status::InvalidArgument(std::string("tpcc ") + name +
                                     " must be in [0, 1]");
    }
  }
  return w;
}

/// Shared initial-database load: partitioned tables through `partitioner`,
/// ITEM replicated everywhere.
void LoadTpccInto(cc::Cluster* cluster, uint32_t num_warehouses,
                  const partition::RecordPartitioner& partitioner) {
  tpcc::PopulateTpcc(
      num_warehouses,
      [&](const RecordId& rid, const storage::Record& rec) {
        cluster->LoadRecord(rid, rec, partitioner);
      },
      [&](const RecordId& rid, const storage::Record& rec) {
        cluster->LoadEverywhere(rid, rec);
      });
}

class TpccBundle : public WorkloadBundle {
 public:
  TpccBundle(tpcc::TpccWorkload::Options options, uint32_t partitions)
      : workload_(options), partitioner_(partitions) {}

  std::vector<storage::TableSpec> Schema() const override {
    return tpcc::Schema();
  }
  const partition::RecordPartitioner* partitioner() const override {
    return &partitioner_;
  }
  cc::WorkloadSource* source() override { return &workload_; }

  void Load(cc::Cluster* cluster) const override {
    LoadTpccInto(cluster, workload_.options().num_warehouses, partitioner_);
  }

 private:
  tpcc::TpccWorkload workload_;
  tpcc::TpccPartitioner partitioner_;
};

StatusOr<std::unique_ptr<WorkloadBundle>> MakeTpcc(const ScenarioSpec& spec) {
  auto w = ParseTpccOptions(spec);
  if (!w.ok()) return w.status();
  return std::unique_ptr<WorkloadBundle>(
      std::make_unique<TpccBundle>(w.value(), spec.partitions()));
}

// ---------------------------------------------------------------------------
// instacart — grocery checkout under a trace-built layout (Figures 7/8)
// ---------------------------------------------------------------------------

class InstacartBundle : public WorkloadBundle {
 public:
  InstacartBundle(instacart::InstacartWorkload::Options options,
                  instacart::InstacartLayouts layouts,
                  const partition::RecordPartitioner* active)
      : workload_(options), layouts_(std::move(layouts)), active_(active) {}

  std::vector<storage::TableSpec> Schema() const override {
    return instacart::Schema();
  }
  const partition::RecordPartitioner* partitioner() const override {
    return active_;
  }
  cc::WorkloadSource* source() override { return &workload_; }

  void Load(cc::Cluster* cluster) const override {
    workload_.ForEachRecord(
        [&](const RecordId& rid, const storage::Record& rec) {
          cluster->LoadRecord(rid, rec, *active_);
        });
  }

 private:
  instacart::InstacartWorkload workload_;
  instacart::InstacartLayouts layouts_;
  const partition::RecordPartitioner* active_;
};

StatusOr<std::unique_ptr<WorkloadBundle>> MakeInstacart(
    const ScenarioSpec& spec) {
  const OptionMap& o = spec.options;
  Status st = o.ExpectOnly({"num_products", "tail_theta", "layout",
                            "trace_txns", "layout_seed", "hot_threshold"});
  if (!st.ok()) return st;

  instacart::InstacartWorkload::Options w;
  w.num_products = o.GetInt("num_products", w.num_products);
  w.tail_theta = o.GetDouble("tail_theta", w.tail_theta);
  if (w.num_products <= 100) {
    return Status::InvalidArgument("instacart num_products must be > 100");
  }

  const std::string layout = o.GetString("layout", "chiller");
  if (layout != "chiller" && layout != "schism" && layout != "hash") {
    return Status::InvalidArgument("unknown instacart layout '" + layout +
                                   "' (known: chiller, hash, schism)");
  }

  // The trace workload is a separate instance from the driver source so the
  // layout never depends on how long the measured run goes on. The Schism
  // build is the expensive one and feeds nothing else, so only the schism
  // layout pays for it.
  instacart::InstacartWorkload trace_workload(w);
  instacart::InstacartLayouts layouts = instacart::BuildInstacartLayouts(
      &trace_workload, spec.partitions(),
      static_cast<size_t>(o.GetInt("trace_txns", 8000)),
      o.GetInt("layout_seed", 7), o.GetDouble("hot_threshold", 0.01),
      /*with_schism=*/layout == "schism");

  const partition::RecordPartitioner* active =
      layout == "chiller" ? layouts.chiller_out.partitioner.get()
      : layout == "schism" ? static_cast<const partition::RecordPartitioner*>(
                                 layouts.schism.get())
                           : layouts.hashing.get();
  return std::unique_ptr<WorkloadBundle>(std::make_unique<InstacartBundle>(
      w, std::move(layouts), active));
}

// ---------------------------------------------------------------------------
// flight — the Figure 4 running example
// ---------------------------------------------------------------------------

class FlightBundle : public WorkloadBundle {
 public:
  FlightBundle(flight::FlightWorkload::Options options, uint32_t partitions)
      : workload_(options),
        partitioner_(partitions, options.hot_flights) {}

  std::vector<storage::TableSpec> Schema() const override {
    return flight::FlightSchema::Specs();
  }
  const partition::RecordPartitioner* partitioner() const override {
    return &partitioner_;
  }
  cc::WorkloadSource* source() override { return &workload_; }

  void Load(cc::Cluster* cluster) const override {
    workload_.ForEachRecord(
        [&](const RecordId& rid, const storage::Record& rec) {
          cluster->LoadRecord(rid, rec, partitioner_);
        });
  }

 private:
  flight::FlightWorkload workload_;
  flight::FlightPartitioner partitioner_;
};

StatusOr<std::unique_ptr<WorkloadBundle>> MakeFlight(
    const ScenarioSpec& spec) {
  const OptionMap& o = spec.options;
  Status st = o.ExpectOnly({"num_flights", "num_customers", "num_states",
                            "hot_flights", "hot_fraction", "initial_seats",
                            "initial_balance"});
  if (!st.ok()) return st;

  flight::FlightWorkload::Options w;
  w.num_flights = o.GetInt("num_flights", w.num_flights);
  w.num_customers = o.GetInt("num_customers", w.num_customers);
  w.num_states = o.GetInt("num_states", w.num_states);
  w.hot_flights = o.GetInt("hot_flights", w.hot_flights);
  w.hot_fraction = o.GetDouble("hot_fraction", w.hot_fraction);
  w.initial_seats =
      static_cast<int64_t>(o.GetInt("initial_seats", w.initial_seats));
  w.initial_balance =
      static_cast<int64_t>(o.GetInt("initial_balance", w.initial_balance));
  // Next() draws Uniform over the hot set, the cold remainder, customers
  // and states, so none of them may be empty.
  if (w.num_flights == 0) {
    return Status::InvalidArgument("flight num_flights must be >= 1");
  }
  if (w.hot_flights == 0 || w.hot_flights >= w.num_flights) {
    return Status::InvalidArgument(
        "flight hot_flights must be in [1, num_flights)");
  }
  if (w.num_customers == 0) {
    return Status::InvalidArgument("flight num_customers must be >= 1");
  }
  if (w.num_states == 0) {
    return Status::InvalidArgument("flight num_states must be >= 1");
  }
  if (!(w.hot_fraction >= 0.0 && w.hot_fraction <= 1.0)) {
    return Status::InvalidArgument("flight hot_fraction must be in [0, 1]");
  }
  constexpr Key kSeatStride = flight::FlightSchema::kSeatStride;
  if (w.initial_seats >= static_cast<int64_t>(kSeatStride)) {
    return Status::InvalidArgument(
        "flight initial_seats must be < " + std::to_string(kSeatStride) +
        " (seat ids would collide across flights)");
  }
  return std::unique_ptr<WorkloadBundle>(
      std::make_unique<FlightBundle>(w, spec.partitions()));
}

// ---------------------------------------------------------------------------
// ycsb — synthetic zipf/read-ratio/distributed-ratio workload
// ---------------------------------------------------------------------------

class YcsbBundle : public WorkloadBundle {
 public:
  explicit YcsbBundle(ycsb::YcsbWorkload::Options options)
      : workload_(options),
        partitioner_(options.num_partitions, options.keys_per_partition,
                     options.hot_keys_per_partition) {}

  std::vector<storage::TableSpec> Schema() const override {
    return ycsb::Schema();
  }
  const partition::RecordPartitioner* partitioner() const override {
    return &partitioner_;
  }
  cc::WorkloadSource* source() override { return &workload_; }

  void Load(cc::Cluster* cluster) const override {
    workload_.ForEachRecord(
        [&](const RecordId& rid, const storage::Record& rec) {
          cluster->LoadRecord(rid, rec, partitioner_);
        });
  }

 private:
  ycsb::YcsbWorkload workload_;
  ycsb::YcsbPartitioner partitioner_;
};

StatusOr<ycsb::YcsbWorkload::Options> ParseYcsbOptions(
    const ScenarioSpec& spec) {
  const OptionMap& o = spec.options;
  ycsb::YcsbWorkload::Options w;
  w.num_partitions = spec.partitions();
  w.keys_per_partition = o.GetInt("keys_per_partition", w.keys_per_partition);
  w.theta = o.GetDouble("theta", w.theta);
  w.read_ratio = o.GetDouble("read_ratio", w.read_ratio);
  w.distributed_ratio = o.GetDouble("distributed_ratio", w.distributed_ratio);
  w.ops_per_txn = static_cast<uint32_t>(o.GetInt("ops_per_txn", w.ops_per_txn));
  w.hot_keys_per_partition =
      o.GetInt("hot_keys_per_partition", w.hot_keys_per_partition);
  w.initial_value =
      static_cast<int64_t>(o.GetInt("initial_value", w.initial_value));
  w.shift_every =
      static_cast<SimTime>(o.GetInt("shift_every_us", 0)) * kMicrosecond;
  w.shift_stride = static_cast<uint64_t>(o.GetInt("shift_stride", 0));
  if (w.keys_per_partition == 0) {
    return Status::InvalidArgument("ycsb keys_per_partition must be >= 1");
  }
  if ((w.shift_every > 0) != (w.shift_stride > 0)) {
    return Status::InvalidArgument(
        "shift_every_us and shift_stride enable the shifting hot set "
        "together (both > 0 or both absent)");
  }
  if (w.shift_stride >= w.keys_per_partition) {
    return Status::InvalidArgument(
        "shift_stride must be < keys_per_partition (the rotation is "
        "modular)");
  }
  if (w.theta < 0.0 || w.theta >= 1.0) {
    return Status::InvalidArgument("ycsb theta must be in [0, 1)");
  }
  if (w.read_ratio < 0.0 || w.read_ratio > 1.0 ||
      w.distributed_ratio < 0.0 || w.distributed_ratio > 1.0) {
    return Status::InvalidArgument(
        "ycsb read_ratio and distributed_ratio must be in [0, 1]");
  }
  if (w.ops_per_txn == 0 || w.ops_per_txn > w.keys_per_partition) {
    return Status::InvalidArgument(
        "ycsb ops_per_txn must be in [1, keys_per_partition]");
  }
  if (w.hot_keys_per_partition > w.keys_per_partition) {
    return Status::InvalidArgument(
        "ycsb hot_keys_per_partition must be <= keys_per_partition");
  }
  return w;
}

StatusOr<std::unique_ptr<WorkloadBundle>> MakeYcsb(const ScenarioSpec& spec) {
  Status st = spec.options.ExpectOnly(
      {"keys_per_partition", "theta", "read_ratio", "distributed_ratio",
       "ops_per_txn", "hot_keys_per_partition", "initial_value"});
  if (!st.ok()) return st;
  auto w = ParseYcsbOptions(spec);
  if (!w.ok()) return w.status();
  return std::unique_ptr<WorkloadBundle>(
      std::make_unique<YcsbBundle>(w.value()));
}

// ---------------------------------------------------------------------------
// adaptive — ycsb traffic on a layout the runner may rebuild while it runs
// ---------------------------------------------------------------------------

/// The online-repartitioning scenario family (paper Section 4.1 end to
/// end): ycsb traffic starts on a contention-oblivious HashPartitioner
/// layout, and the bundle exposes the live partitioner as swappable so
/// sample/replan/migrate phases can converge it onto a Chiller layout.
class AdaptiveYcsbBundle : public WorkloadBundle {
 public:
  explicit AdaptiveYcsbBundle(ycsb::YcsbWorkload::Options options)
      : workload_(options),
        swappable_(std::make_unique<partition::HashPartitioner>(
            options.num_partitions)) {}

  std::vector<storage::TableSpec> Schema() const override {
    return ycsb::Schema();
  }
  const partition::RecordPartitioner* partitioner() const override {
    return &swappable_;
  }
  partition::SwappablePartitioner* adaptive_partitioner() override {
    return &swappable_;
  }
  cc::WorkloadSource* source() override { return &workload_; }

  void Load(cc::Cluster* cluster) const override {
    // Bind the shifting hot set (if configured) to this cluster's simulated
    // clock; Next() draws happen in engine events, where now() is
    // shard-invariant. Load() is the one hook that sees the cluster.
    workload_.SetClock([cluster] { return cluster->sim()->now(); });
    workload_.ForEachRecord(
        [&](const RecordId& rid, const storage::Record& rec) {
          cluster->LoadRecord(rid, rec, swappable_);
        });
  }

 private:
  /// mutable: Load(cluster) is const in the WorkloadBundle interface but
  /// must bind the clock for the shifting hot set.
  mutable ycsb::YcsbWorkload workload_;
  partition::SwappablePartitioner swappable_;
};

StatusOr<std::unique_ptr<WorkloadBundle>> MakeAdaptive(
    const ScenarioSpec& spec) {
  // hot_keys_per_partition is deliberately not a knob here: pre-replan the
  // hash layout knows no hot records, and post-replan hotness comes from
  // the sampled contention likelihoods, not a rank threshold.
  // shift_every_us / shift_stride stay adaptive-only: a shifting hot set
  // on a frozen layout is just a slower hash workload, and allowing it
  // there would invite apples-to-oranges grids.
  Status st = spec.options.ExpectOnly(
      {"keys_per_partition", "theta", "read_ratio", "distributed_ratio",
       "ops_per_txn", "initial_value", "shift_every_us", "shift_stride"});
  if (!st.ok()) return st;
  auto w = ParseYcsbOptions(spec);
  if (!w.ok()) return w.status();
  return std::unique_ptr<WorkloadBundle>(
      std::make_unique<AdaptiveYcsbBundle>(w.value()));
}

// ---------------------------------------------------------------------------
// adaptive-tpcc — TPC-C traffic on a hash-start layout the runner rebuilds
// ---------------------------------------------------------------------------

/// The multi-table migration scenario: full TPC-C traffic starts on a
/// contention-oblivious record-hash layout (NOT the by-warehouse layout —
/// warehouse affinity is exactly what the replan has to discover), and the
/// swappable partitioner lets sample/replan/migrate phases or the
/// continuous controller converge it. The replan's lookup fallback is the
/// same record hash, so keys born mid-relayout (orders, order lines,
/// history rows) place identically under the outgoing and incoming layouts
/// — the invariant live migration relies on.
class AdaptiveTpccBundle : public WorkloadBundle {
 public:
  AdaptiveTpccBundle(tpcc::TpccWorkload::Options options, uint32_t partitions)
      : workload_(options),
        swappable_(std::make_unique<partition::HashPartitioner>(partitions)) {
  }

  std::vector<storage::TableSpec> Schema() const override {
    return tpcc::Schema();
  }
  const partition::RecordPartitioner* partitioner() const override {
    return &swappable_;
  }
  partition::SwappablePartitioner* adaptive_partitioner() override {
    return &swappable_;
  }
  cc::WorkloadSource* source() override { return &workload_; }

  void Load(cc::Cluster* cluster) const override {
    LoadTpccInto(cluster, workload_.options().num_warehouses, swappable_);
  }

 private:
  tpcc::TpccWorkload workload_;
  partition::SwappablePartitioner swappable_;
};

StatusOr<std::unique_ptr<WorkloadBundle>> MakeAdaptiveTpcc(
    const ScenarioSpec& spec) {
  auto w = ParseTpccOptions(spec);
  if (!w.ok()) return w.status();
  return std::unique_ptr<WorkloadBundle>(
      std::make_unique<AdaptiveTpccBundle>(w.value(), spec.partitions()));
}

}  // namespace

const WorkloadTable& Workloads() {
  static const WorkloadTable table(
      "workload", {{"tpcc", MakeTpcc},
                   {"instacart", MakeInstacart},
                   {"flight", MakeFlight},
                   {"ycsb", MakeYcsb},
                   {"adaptive", MakeAdaptive},
                   {"adaptive-tpcc", MakeAdaptiveTpcc}});
  return table;
}

}  // namespace chiller::runner
