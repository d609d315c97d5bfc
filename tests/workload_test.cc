// Workload tests: TPC-C generator conformance and spec consistency
// conditions under all three protocols; Instacart-like generator marginals;
// retries of every workload's transactions.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cc/cluster.h"
#include "cc/driver.h"
#include "cc/occ.h"
#include "cc/twopl.h"
#include "chiller/two_region.h"
#include "partition/chiller_partitioner.h"
#include "partition/metrics.h"
#include "txn/dependency_graph.h"
#include "workload/flight.h"
#include "workload/instacart.h"
#include "workload/tpcc/tpcc_workload.h"
#include "workload/ycsb.h"

namespace chiller {
namespace {

namespace tpcc = workload::tpcc;
namespace instacart = workload::instacart;

// ---------- TPC-C generator conformance ----------

TEST(TpccGenTest, NURandInRange) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const uint64_t v = tpcc::NURand(&rng, 255, 0, 599);
    EXPECT_LT(v, 600u);
  }
}

TEST(TpccGenTest, NURandIsSkewed) {
  Rng rng(2);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 100000; ++i) ++counts[tpcc::RandomCustomer(&rng)];
  // NURand concentrates mass: the most popular customer id should appear
  // far more often than the uniform expectation.
  int max_count = 0;
  for (const auto& [k, c] : counts) max_count = std::max(max_count, c);
  EXPECT_GT(max_count, 2 * 100000 / 600);
}

TEST(TpccGenTest, KeyEncodingsRoundTrip) {
  for (uint64_t w : {0ull, 3ull, 79ull}) {
    EXPECT_EQ(tpcc::WarehouseOfKey(tpcc::kWarehouse, tpcc::WarehouseKey(w)),
              w);
    EXPECT_EQ(tpcc::WarehouseOfKey(tpcc::kDistrict, tpcc::DistrictKey(w, 9)),
              w);
    EXPECT_EQ(
        tpcc::WarehouseOfKey(tpcc::kCustomer, tpcc::CustomerKey(w, 9, 599)),
        w);
    EXPECT_EQ(tpcc::WarehouseOfKey(tpcc::kStock, tpcc::StockKey(w, 4999)), w);
    EXPECT_EQ(tpcc::WarehouseOfKey(tpcc::kOrder,
                                   tpcc::OrderKey(w, 9, 12345)),
              w);
    EXPECT_EQ(tpcc::WarehouseOfKey(
                  tpcc::kOrderLine,
                  tpcc::OrderLineKey(tpcc::OrderKey(w, 9, 12345), 15)),
              w);
    EXPECT_EQ(tpcc::WarehouseOfKey(tpcc::kHistory, tpcc::HistoryKey(w, 777)),
              w);
  }
}

TEST(TpccGenTest, MixRatios) {
  tpcc::TpccWorkload wl(tpcc::TpccWorkload::Options{.num_warehouses = 4});
  Rng rng(3);
  std::map<uint32_t, int> counts;
  const int n = 20000;
  for (int i = 0; i < n; ++i) ++counts[wl.Next(i % 4, &rng)->txn_class];
  EXPECT_NEAR(counts[tpcc::kNewOrderTxn] / double(n), 0.45, 0.02);
  EXPECT_NEAR(counts[tpcc::kPaymentTxn] / double(n), 0.43, 0.02);
  EXPECT_NEAR(counts[tpcc::kOrderStatusTxn] / double(n), 0.04, 0.01);
  EXPECT_NEAR(counts[tpcc::kDeliveryTxn] / double(n), 0.04, 0.01);
  EXPECT_NEAR(counts[tpcc::kStockLevelTxn] / double(n), 0.04, 0.01);
}

TEST(TpccGenTest, RemoteProbabilitiesHonored) {
  tpcc::TpccWorkload::Options opts;
  opts.num_warehouses = 8;
  opts.remote_new_order_prob = 0.3;
  opts.remote_payment_prob = 0.5;
  tpcc::TpccWorkload wl(opts);
  Rng rng(5);
  int no = 0, no_remote = 0, pay = 0, pay_remote = 0;
  for (int i = 0; i < 30000; ++i) {
    auto t = wl.Next(2, &rng);
    if (t->txn_class == tpcc::kNewOrderTxn) {
      ++no;
      const auto& p = t->ctx.params;
      bool remote = false;
      for (int64_t l = 0; l < p[3]; ++l) {
        if (p[6 + 3 * l] != p[0]) remote = true;
      }
      no_remote += remote;
    } else if (t->txn_class == tpcc::kPaymentTxn) {
      ++pay;
      pay_remote += (t->ctx.params[2] != t->ctx.params[0]);
    }
  }
  EXPECT_NEAR(no_remote / double(no), 0.3, 0.02);
  EXPECT_NEAR(pay_remote / double(pay), 0.5, 0.02);
}

TEST(TpccGenTest, AllBuildersValidate) {
  tpcc::TpccWorkload wl(tpcc::TpccWorkload::Options{.num_warehouses = 4});
  Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    auto t = wl.Next(i % 4, &rng);
    EXPECT_TRUE(txn::DependencyAnalysis::Validate(t->ops).ok())
        << "class " << t->txn_class;
  }
}

// ---------- Retries share the op list of their first attempt ----------

/// Dirties every piece of per-attempt state of `t`, as an aborted attempt
/// leaves it, and sets the fields a retry carries over.
void AbortAttempt(txn::Transaction* t) {
  t->id = 99;
  t->home = 3;
  const size_t built_vars = t->ctx.vars.size();
  for (size_t v = 0; v <= built_vars; ++v) {
    t->ctx.SetVar(v, static_cast<int64_t>(v) + 17);  // and one slot beyond
  }
  for (txn::Access& acc : t->accesses) {
    acc.key_resolved = acc.lock_held = acc.fetched = acc.wrote = true;
    acc.partition = 2;
    acc.alias_of = 0;
  }
  t->dead_groups.insert(1);
  t->outcome = txn::Outcome::kAbortConflict;
  t->blocked_by_migration = true;
  t->start_time = 10;
  t->end_time = 20;
  t->attempt = 2;
  t->admission_delay = 7;
  t->force_fallback = true;
  t->sched_class = 5;
  t->logical_id = 42;
  t->traced = true;
}

/// The retry of `aborted` must be the attempt a fresh build of its params
/// would have made, on the first attempt's shared op list, carrying the
/// logical transaction's fields.
void ExpectRetryIsAFreshAttempt(const txn::Transaction& aborted,
                                const txn::Transaction& fresh) {
  const auto retry = cc::Driver::RebuildForRetry(aborted);
  EXPECT_EQ(retry->txn_class, fresh.txn_class);
  EXPECT_EQ(retry->ctx.params, fresh.ctx.params);
  EXPECT_EQ(retry->ctx.vars, fresh.ctx.vars);  // built size, zeroed
  EXPECT_EQ(retry->op_list(), aborted.op_list());
  ASSERT_EQ(retry->ops.size(), fresh.ops.size());
  for (size_t i = 0; i < fresh.ops.size(); ++i) {
    const txn::Operation& a = retry->ops[i];
    const txn::Operation& b = fresh.ops[i];
    EXPECT_EQ(a.template_id, b.template_id) << "op " << i;
    EXPECT_EQ(a.type, b.type) << "op " << i;
    EXPECT_EQ(a.table, b.table) << "op " << i;
    EXPECT_EQ(a.mode, b.mode) << "op " << i;
    EXPECT_EQ(a.pk_deps, b.pk_deps) << "op " << i;
    EXPECT_EQ(a.v_deps, b.v_deps) << "op " << i;
    EXPECT_EQ(a.co_located_with_dep, b.co_located_with_dep) << "op " << i;
    EXPECT_EQ(a.access_local_replica, b.access_local_replica) << "op " << i;
    EXPECT_EQ(a.may_be_missing, b.may_be_missing) << "op " << i;
    EXPECT_EQ(a.skip_group, b.skip_group) << "op " << i;
    EXPECT_EQ(!a.guard, !b.guard) << "op " << i;
    EXPECT_EQ(!a.on_read, !b.on_read) << "op " << i;
    EXPECT_EQ(!a.on_apply, !b.on_apply) << "op " << i;
    EXPECT_EQ(!a.make_record, !b.make_record) << "op " << i;
    EXPECT_EQ(a.key_fn(retry->ctx), b.key_fn(fresh.ctx)) << "op " << i;
  }
  // Fresh per-attempt state.
  ASSERT_EQ(retry->accesses.size(), retry->ops.size());
  for (const txn::Access& acc : retry->accesses) {
    EXPECT_FALSE(acc.key_resolved || acc.lock_held || acc.fetched ||
                 acc.wrote);
    EXPECT_EQ(acc.partition, kInvalidPartition);
    EXPECT_EQ(acc.alias_of, -1);
  }
  EXPECT_TRUE(retry->dead_groups.empty());
  EXPECT_EQ(retry->outcome, txn::Outcome::kPending);
  EXPECT_FALSE(retry->blocked_by_migration);
  EXPECT_EQ(retry->id, 0u);
  EXPECT_EQ(retry->start_time, 0u);
  EXPECT_EQ(retry->end_time, 0u);
  // Carried across retries.
  EXPECT_EQ(retry->attempt, aborted.attempt + 1);
  EXPECT_EQ(retry->admission_delay, aborted.admission_delay);
  EXPECT_EQ(retry->force_fallback, aborted.force_fallback);
  EXPECT_EQ(retry->sched_class, aborted.sched_class);
  EXPECT_EQ(retry->logical_id, aborted.logical_id);
  EXPECT_EQ(retry->traced, aborted.traced);
}

TEST(RetryTest, TpccRetryOfEveryClassIsAFreshAttempt) {
  tpcc::TpccWorkload wl(tpcc::TpccWorkload::Options{.num_warehouses = 4});
  using Builder = std::unique_ptr<txn::Transaction> (*)(std::vector<int64_t>);
  const Builder builders[] = {tpcc::BuildNewOrder, tpcc::BuildPayment,
                              tpcc::BuildOrderStatus, tpcc::BuildDelivery,
                              tpcc::BuildStockLevel};
  Rng rng(9);
  std::set<uint32_t> classes;
  for (int i = 0; i < 400; ++i) {
    auto t = wl.Next(i % 4, &rng);
    classes.insert(t->txn_class);
    auto fresh = builders[t->txn_class](t->ctx.params);
    AbortAttempt(t.get());
    ExpectRetryIsAFreshAttempt(*t, *fresh);
  }
  EXPECT_EQ(classes.size(), 5u);
}

TEST(RetryTest, YcsbRetryIsAFreshAttempt) {
  workload::ycsb::YcsbWorkload wl(workload::ycsb::YcsbWorkload::Options{
      .num_partitions = 2, .keys_per_partition = 1000});
  Rng rng(11);
  for (int i = 0; i < 50; ++i) {
    auto t = wl.Next(i % 2, &rng);
    auto fresh = workload::ycsb::BuildYcsbTxn(t->ctx.params);
    AbortAttempt(t.get());
    ExpectRetryIsAFreshAttempt(*t, *fresh);
  }
}

TEST(RetryTest, FlightRetryIsAFreshAttempt) {
  workload::FlightWorkload wl(workload::FlightWorkload::Options{});
  Rng rng(13);
  for (int i = 0; i < 50; ++i) {
    auto t = wl.Next(0, &rng);
    auto fresh = workload::MakeBookingTxn(static_cast<Key>(t->ctx.params[0]),
                                          static_cast<Key>(t->ctx.params[1]));
    AbortAttempt(t.get());
    ExpectRetryIsAFreshAttempt(*t, *fresh);
  }
}

TEST(RetryTest, InstacartRetryIsAFreshAttempt) {
  instacart::InstacartWorkload::Options opts;
  opts.num_products = 2000;
  instacart::InstacartWorkload wl(opts);
  Rng rng(15);
  for (int i = 0; i < 50; ++i) {
    auto t = wl.Next(i % 4, &rng);
    auto fresh = instacart::BuildOrderTxn(t->ctx.params);
    AbortAttempt(t.get());
    ExpectRetryIsAFreshAttempt(*t, *fresh);
  }
}

TEST(RetryTest, RetryOfARetrySharesTheFirstOpList) {
  auto first = workload::MakeBookingTxn(/*flight_id=*/5, /*cust_id=*/1234);
  AbortAttempt(first.get());
  auto second = cc::Driver::RebuildForRetry(*first);
  AbortAttempt(second.get());
  second->attempt = 3;
  auto third = cc::Driver::RebuildForRetry(*second);
  EXPECT_EQ(third->op_list(), first->op_list());
  EXPECT_EQ(&third->ops[0], &first->ops[0]);
  EXPECT_EQ(third->attempt, 4u);
}

// ---------- TPC-C consistency under every protocol ----------

struct TpccEnv {
  std::unique_ptr<cc::Cluster> cluster;
  std::unique_ptr<tpcc::TpccPartitioner> partitioner;
  std::unique_ptr<tpcc::TpccWorkload> workload;
  std::unique_ptr<cc::ReplicationManager> repl;
  std::unique_ptr<cc::Protocol> protocol;
  std::unique_ptr<cc::Driver> driver;
  uint32_t warehouses;
};

TpccEnv MakeTpccEnv(const std::string& proto, uint32_t warehouses,
                    uint32_t concurrency) {
  TpccEnv env;
  env.warehouses = warehouses;
  cc::ClusterConfig cfg;
  cfg.topology = net::Topology{.num_nodes = warehouses,
                               .engines_per_node = 1,
                               .replication_degree = 2};
  cfg.schema = tpcc::Schema();
  env.cluster = std::make_unique<cc::Cluster>(cfg);
  env.partitioner = std::make_unique<tpcc::TpccPartitioner>(warehouses);
  tpcc::PopulateTpcc(
      warehouses,
      [&](const RecordId& rid, const storage::Record& rec) {
        env.cluster->LoadRecord(rid, rec, *env.partitioner);
      },
      [&](const RecordId& rid, const storage::Record& rec) {
        env.cluster->LoadEverywhere(rid, rec);
      });
  env.workload = std::make_unique<tpcc::TpccWorkload>(
      tpcc::TpccWorkload::Options{.num_warehouses = warehouses});
  env.repl = std::make_unique<cc::ReplicationManager>(env.cluster.get());
  if (proto == "2pl") {
    env.protocol = std::make_unique<cc::TwoPhaseLocking>(
        env.cluster.get(), env.partitioner.get(), env.repl.get());
  } else if (proto == "occ") {
    env.protocol = std::make_unique<cc::Occ>(
        env.cluster.get(), env.partitioner.get(), env.repl.get());
  } else {
    env.protocol = std::make_unique<core::ChillerProtocol>(
        env.cluster.get(), env.partitioner.get(), env.repl.get());
  }
  env.driver = std::make_unique<cc::Driver>(
      env.cluster.get(), env.protocol.get(), env.workload.get(), concurrency);
  return env;
}

/// TPC-C consistency conditions (clause 3.3.2), adapted to the
/// starts-empty order tables:
///  1. W_YTD == sum of the warehouse's D_YTD.
///  2. D_NEXT_O_ID - 1 == number of ORDER rows in the district.
///  3. Every ORDER has exactly O_OL_CNT order lines.
///  4. NEWORDER rows == ORDER rows with no carrier (undelivered).
///  5. Money conservation: sum(balances) + sum(W_YTD) - delivered refunds
///     == initial balances.
void CheckTpccConsistency(TpccEnv& env) {
  std::map<Key, int64_t> w_ytd, d_ytd_sum, d_next;
  std::map<Key, int64_t> orders_per_district, ol_per_district,
      expected_ol_per_district;
  int64_t neworder_rows = 0, undelivered_orders = 0;
  int64_t balances = 0, warehouse_ytd_total = 0, delivered_refunds = 0;
  int64_t customers = 0;

  for (uint32_t pid = 0; pid < env.warehouses; ++pid) {
    EXPECT_EQ(env.cluster->primary(pid)->locks_held(), 0u);
    env.cluster->primary(pid)->ForEach([&](const RecordId& rid,
                                           const storage::Record& rec) {
      switch (rid.table) {
        case tpcc::kWarehouse:
          w_ytd[rid.key] = rec.Get(tpcc::WarehouseF::kYtd);
          warehouse_ytd_total += rec.Get(tpcc::WarehouseF::kYtd);
          break;
        case tpcc::kDistrict:
          d_ytd_sum[rid.key / tpcc::kDistrictsPerWarehouse] +=
              rec.Get(tpcc::DistrictF::kYtd);
          d_next[rid.key] = rec.Get(tpcc::DistrictF::kNextOid);
          break;
        case tpcc::kOrder: {
          const Key district = rid.key / tpcc::kOrderStride;
          ++orders_per_district[district];
          expected_ol_per_district[district] +=
              rec.Get(tpcc::OrderF::kOlCnt);
          if (rec.Get(tpcc::OrderF::kCarrier) == 0) ++undelivered_orders;
          break;
        }
        case tpcc::kOrderLine: {
          const Key district =
              rid.key / (tpcc::kMaxOrderLines + 1) / tpcc::kOrderStride;
          ++ol_per_district[district];
          if (rec.Get(tpcc::OrderLineF::kDeliveryD) != 0) {
            delivered_refunds += rec.Get(tpcc::OrderLineF::kAmount);
          }
          break;
        }
        case tpcc::kNewOrder:
          ++neworder_rows;
          break;
        case tpcc::kCustomer:
          balances += rec.Get(tpcc::CustomerF::kBalance);
          ++customers;
          break;
        default:
          break;
      }
    });
  }

  // (1) warehouse YTD vs district YTDs.
  for (const auto& [w, ytd] : w_ytd) {
    EXPECT_EQ(ytd, d_ytd_sum[w]) << "warehouse " << w;
  }
  // (2) order counts match next_o_id.
  for (const auto& [district, next] : d_next) {
    EXPECT_EQ(next - 1, orders_per_district[district])
        << "district " << district;
  }
  // (3) order line counts match the orders' OL_CNT.
  for (const auto& [district, expected] : expected_ol_per_district) {
    EXPECT_EQ(expected, ol_per_district[district]) << "district " << district;
  }
  // (4) undelivered orders carry NEWORDER rows.
  EXPECT_EQ(neworder_rows, undelivered_orders);
  // (5) money conservation: Payments move balance -> W_YTD 1:1; Delivery
  // refunds the first order line's amount.
  EXPECT_EQ(balances + warehouse_ytd_total - delivered_refunds,
            customers * -1000);
}

class TpccProtocolTest : public ::testing::TestWithParam<std::string> {};

TEST_P(TpccProtocolTest, ConsistencyAfterMixedRun) {
  TpccEnv env = MakeTpccEnv(GetParam(), 4, /*concurrency=*/3);
  auto stats = env.driver->Run(2 * kMillisecond, 25 * kMillisecond);
  env.driver->Quiesce();
  EXPECT_GT(stats.TotalCommits(), 200u);
  // Every class committed at least once.
  for (uint32_t cls = 0; cls < 5; ++cls) {
    EXPECT_GT(stats.classes[cls].commits, 0u) << env.workload->ClassName(cls);
  }
  CheckTpccConsistency(env);
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, TpccProtocolTest,
                         ::testing::Values("2pl", "occ", "chiller"));

TEST(TpccChillerTest, WarehouseAndDistrictGoInner) {
  TpccEnv env = MakeTpccEnv("chiller", 4, 2);
  env.driver->Run(1 * kMillisecond, 10 * kMillisecond);
  env.driver->Quiesce();
  auto* chiller = static_cast<core::ChillerProtocol*>(env.protocol.get());
  // NewOrder and Payment both touch hot records, so the two-region path
  // must dominate.
  EXPECT_GT(chiller->counters().two_region_txns,
            chiller->counters().fallback_txns);
}

TEST(TpccPipelineTest, ContentionModelFindsWarehouseAndDistrict) {
  // Dogfood the Section 4 pipeline on a TPC-C trace: warehouse and district
  // rows must surface as the most contended records.
  tpcc::TpccWorkload wl(tpcc::TpccWorkload::Options{.num_warehouses = 4});
  Rng rng(11);
  auto traces = wl.GenerateTrace(5000, &rng);
  partition::StatsCollector stats;
  for (const auto& t : traces) stats.ObserveTrace(t);
  auto pcs = stats.ContentionLikelihoods(16.0);
  ASSERT_GE(pcs.size(), 10u);
  // The 4 hottest records must all be warehouse rows (every Payment writes
  // one), followed by district rows.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(pcs[static_cast<size_t>(i)].first.table, tpcc::kWarehouse);
  }
  int districts_in_top = 0;
  for (int i = 4; i < 44 && i < static_cast<int>(pcs.size()); ++i) {
    districts_in_top +=
        (pcs[static_cast<size_t>(i)].first.table == tpcc::kDistrict);
  }
  EXPECT_GE(districts_in_top, 30);
}

// ---------- Instacart-like generator ----------

TEST(InstacartTest, TopItemBasketShares) {
  instacart::InstacartWorkload::Options opts;
  opts.num_products = 5000;
  instacart::InstacartWorkload wl(opts);
  Rng rng(13);
  int with_top1 = 0, with_top2 = 0;
  double total_items = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    auto basket = wl.SampleBasket(&rng);
    total_items += static_cast<double>(basket.size());
    bool t1 = false, t2 = false;
    for (uint64_t item : basket) {
      t1 |= (item == 0);
      t2 |= (item == 1);
    }
    with_top1 += t1;
    with_top2 += t2;
  }
  // The paper's measured shares: bananas 15%, strawberries 8%.
  EXPECT_NEAR(with_top1 / double(n), 0.15, 0.03);
  EXPECT_NEAR(with_top2 / double(n), 0.08, 0.02);
  EXPECT_NEAR(total_items / n, 10.0, 2.5);
}

TEST(InstacartTest, TraceAndTxnAgree) {
  instacart::InstacartWorkload::Options opts;
  opts.num_products = 2000;
  instacart::InstacartWorkload wl(opts);
  Rng rng(17);
  auto t = wl.Next(0, &rng);
  EXPECT_TRUE(txn::DependencyAnalysis::Validate(t->ops).ok());
  // ops: one stock update per item + 1 order insert
  EXPECT_EQ(t->ops.size(), static_cast<size_t>(t->ctx.params[2]) + 1);
}

TEST(InstacartTest, StockConservationUnderChiller) {
  instacart::InstacartWorkload::Options opts;
  opts.num_products = 2000;
  opts.seed = 19;
  instacart::InstacartWorkload wl(opts);

  // Partition with the full Chiller pipeline trained on a trace.
  Rng trng(21);
  auto traces = wl.GenerateTrace(3000, &trng);
  partition::ChillerPartitioner::Options popts;
  popts.k = 4;
  popts.hot_threshold = 0.01;
  popts.fallback_fn = instacart::InstacartFallback;
  auto built = partition::ChillerPartitioner::Build(traces, popts);

  cc::ClusterConfig cfg;
  cfg.topology = net::Topology{.num_nodes = 4,
                               .engines_per_node = 1,
                               .replication_degree = 2};
  cfg.schema = instacart::Schema();
  cc::Cluster cluster(cfg);
  wl.ForEachRecord([&](const RecordId& rid, const storage::Record& rec) {
    cluster.LoadRecord(rid, rec, *built.partitioner);
  });
  cc::ReplicationManager repl(&cluster);
  core::ChillerProtocol protocol(&cluster, built.partitioner.get(), &repl);
  cc::Driver driver(&cluster, &protocol, &wl, /*concurrent=*/3);
  auto stats = driver.Run(1 * kMillisecond, 15 * kMillisecond);
  driver.Quiesce();
  EXPECT_GT(stats.TotalCommits(), 100u);

  // Conservation: total stock decrements == total items in order rows.
  int64_t decrements = 0, ordered_items = 0;
  for (uint32_t p = 0; p < 4; ++p) {
    EXPECT_EQ(cluster.primary(p)->locks_held(), 0u);
    cluster.primary(p)->ForEach(
        [&](const RecordId& rid, const storage::Record& rec) {
          if (rid.table == instacart::kStock) {
            decrements += opts.initial_stock - rec.Get(0);
            EXPECT_EQ(opts.initial_stock - rec.Get(0), rec.Get(1));
          } else if (rid.table == instacart::kOrder) {
            ordered_items += rec.Get(0);
          }
        });
  }
  EXPECT_EQ(decrements, ordered_items);
}

TEST(InstacartTest, ChillerPartitioningBeatsHashOnContention) {
  instacart::InstacartWorkload::Options opts;
  opts.num_products = 5000;
  instacart::InstacartWorkload wl(opts);
  Rng rng(23);
  auto traces = wl.GenerateTrace(4000, &rng);
  partition::StatsCollector stats;
  for (const auto& t : traces) stats.ObserveTrace(t);

  auto chiller = partition::ChillerPartitioner::Build(
      traces, {.k = 8, .hot_threshold = 0.01});
  partition::HashPartitioner hash(8);
  const std::vector<double> resid = partition::ResidualContention(
      traces, {chiller.partitioner.get(), &hash}, stats, 16.0);
  EXPECT_LT(resid[0], resid[1] * 0.8);
}

}  // namespace
}  // namespace chiller
