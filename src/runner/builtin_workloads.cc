// WorkloadBundle implementations for the built-in workloads.
//
// Each factory declares its knobs once, as a Knob table over its Options
// struct (whose initial values are the defaults), parses
// ScenarioSpec::options through it, checks the cross-field rules next to
// the table, and returns a self-contained bundle: sweeps run bundles on
// concurrent workers, so factories never share state.
#include "runner/registry.h"

#include <initializer_list>
#include <limits>
#include <string>
#include <utility>
#include <vector>

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

/// A cross-field rule: InvalidArgument "<workload> <must>" unless `holds`.
struct Rule {
  bool holds;
  std::string must;
};

/// `st` if it already failed, else the first broken rule, else OK.
Status CheckRules(Status st, const ScenarioSpec& spec,
                  std::initializer_list<Rule> rules) {
  if (!st.ok()) return st;
  for (const Rule& r : rules) {
    if (!r.holds) return Status::InvalidArgument(spec.workload + " " + r.must);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// tpcc — one warehouse per engine, partitioned by warehouse (Figures 9/10)
// ---------------------------------------------------------------------------

/// The tpcc and adaptive-tpcc knobs (same surface; only the layout
/// differs).
StatusOr<tpcc::TpccWorkload::Options> TpccOptions(const ScenarioSpec& spec) {
  tpcc::TpccWorkload::Options w;
  // The paper's setup: exactly one warehouse per engine/partition.
  w.num_warehouses = spec.partitions();
  Status st = ParseKnobs(
      spec.options, spec.workload,
      {{"num_warehouses", &w.num_warehouses, 1},
       {"remote_new_order_prob", &w.remote_new_order_prob, 0.0, 1.0},
       {"remote_payment_prob", &w.remote_payment_prob, 0.0, 1.0},
       {"pct_new_order", &w.pct_new_order, 0, 100},
       {"pct_payment", &w.pct_payment, 0, 100},
       {"pct_order_status", &w.pct_order_status, 0, 100},
       {"pct_delivery", &w.pct_delivery, 0, 100},
       {"pct_stock_level", &w.pct_stock_level, 0, 100},
       {"invalid_item_prob", &w.invalid_item_prob, 0.0, 1.0},
       {"stock_level_orders", &w.stock_level_orders}});
  st = CheckRules(st, spec,
                  {{w.pct_new_order + w.pct_payment + w.pct_order_status +
                            w.pct_delivery + w.pct_stock_level ==
                        100,
                    "mix percentages must sum to 100"}});
  if (!st.ok()) return st;
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
  auto w = TpccOptions(spec);
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
  instacart::InstacartWorkload::Options w;
  std::string layout = "chiller";
  size_t trace_txns = 8000;
  uint64_t layout_seed = 7;
  double hot_threshold = 0.01;
  Status st = ParseKnobs(
      spec.options, spec.workload,
      {{"num_products", &w.num_products, 101},
       // At 10 the first tail item draws 99.9% of the tail.
       {"tail_theta", &w.tail_theta, 0.0, 10.0},
       {"layout", &layout, {"chiller", "hash", "schism"}},
       {"trace_txns", &trace_txns, 1},
       {"layout_seed", &layout_seed},
       {"hot_threshold", &hot_threshold, 0.0, 1.0}});
  if (!st.ok()) return st;

  // The trace workload is a separate instance from the driver source so the
  // layout never depends on how long the measured run goes on. The Schism
  // build is the expensive one and feeds nothing else, so only the schism
  // layout pays for it.
  instacart::InstacartWorkload trace_workload(w);
  instacart::InstacartLayouts layouts = instacart::BuildInstacartLayouts(
      &trace_workload, spec.partitions(), trace_txns, layout_seed,
      hot_threshold, /*with_schism=*/layout == "schism");

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
  // Next() draws Uniform over the hot set, the cold remainder, customers
  // and states, so none of them may be empty.
  flight::FlightWorkload::Options w;
  Status st = ParseKnobs(spec.options, spec.workload,
                         {{"num_flights", &w.num_flights, 1},
                          {"num_customers", &w.num_customers, 1},
                          {"num_states", &w.num_states, 1},
                          {"hot_flights", &w.hot_flights, 1},
                          {"hot_fraction", &w.hot_fraction, 0.0, 1.0},
                          {"initial_seats", &w.initial_seats, 0},
                          {"initial_balance", &w.initial_balance, 0}});
  constexpr Key kSeatStride = flight::FlightSchema::kSeatStride;
  st = CheckRules(st, spec,
                  {{w.hot_flights < w.num_flights,
                    "hot_flights must be < num_flights"},
                   {w.initial_seats < static_cast<int64_t>(kSeatStride),
                    "initial_seats must be < " + std::to_string(kSeatStride) +
                        " (seat ids would collide across flights)"}});
  if (!st.ok()) return st;
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

/// The knob rows ycsb and adaptive share.
std::vector<Knob> YcsbKnobs(ycsb::YcsbWorkload::Options* w) {
  return {{"keys_per_partition", &w->keys_per_partition, 1},
          {"theta", &w->theta, 0.0, 1.0, /*hi_open=*/true},
          {"read_ratio", &w->read_ratio, 0.0, 1.0},
          {"distributed_ratio", &w->distributed_ratio, 0.0, 1.0},
          {"ops_per_txn", &w->ops_per_txn, 1},
          {"initial_value", &w->initial_value}};
}

StatusOr<std::unique_ptr<WorkloadBundle>> MakeYcsb(const ScenarioSpec& spec) {
  ycsb::YcsbWorkload::Options w;
  w.num_partitions = spec.partitions();
  std::vector<Knob> knobs = YcsbKnobs(&w);
  knobs.push_back({"hot_keys_per_partition", &w.hot_keys_per_partition});
  Status st = ParseKnobs(spec.options, spec.workload, knobs);
  st = CheckRules(
      st, spec,
      {{w.ops_per_txn <= w.keys_per_partition,
        "ops_per_txn must be <= keys_per_partition"},
       {w.hot_keys_per_partition <= w.keys_per_partition,
        "hot_keys_per_partition must be <= keys_per_partition"}});
  if (!st.ok()) return st;
  return std::unique_ptr<WorkloadBundle>(std::make_unique<YcsbBundle>(w));
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
  // the sampled contention likelihoods, not a rank threshold. It is zeroed
  // because YcsbWorkload CHECKs it against keys_per_partition.
  // shift_every_us / shift_stride stay adaptive-only: a shifting hot set
  // on a frozen layout is just a slower hash workload, and allowing it
  // there would invite apples-to-oranges grids.
  ycsb::YcsbWorkload::Options w;
  w.num_partitions = spec.partitions();
  w.hot_keys_per_partition = 0;
  uint64_t shift_every_us = 0;
  std::vector<Knob> knobs = YcsbKnobs(&w);
  knobs.push_back({"shift_every_us", &shift_every_us, 0,
                   std::numeric_limits<SimTime>::max() / kMicrosecond});
  knobs.push_back({"shift_stride", &w.shift_stride});
  Status st = ParseKnobs(spec.options, spec.workload, knobs);
  st = CheckRules(
      st, spec,
      {{w.ops_per_txn <= w.keys_per_partition,
        "ops_per_txn must be <= keys_per_partition"},
       {(shift_every_us > 0) == (w.shift_stride > 0),
        "shift_every_us and shift_stride must be set together (both > 0 or "
        "both absent)"},
       {w.shift_stride < w.keys_per_partition,
        "shift_stride must be < keys_per_partition (the rotation is "
        "modular)"}});
  if (!st.ok()) return st;
  w.shift_every = shift_every_us * kMicrosecond;
  return std::unique_ptr<WorkloadBundle>(
      std::make_unique<AdaptiveYcsbBundle>(w));
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
  auto w = TpccOptions(spec);
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
