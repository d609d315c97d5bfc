#include "workload/tpcc/tpcc_workload.h"

#include <utility>

#include "common/logging.h"

namespace chiller::workload::tpcc {

namespace {
using storage::LockMode;
using storage::Record;
using txn::Operation;
using txn::OpType;
using txn::Transaction;
using txn::TxnContext;

// Context variable slots.
constexpr size_t kVWTax = 0;
constexpr size_t kVDTax = 1;
constexpr size_t kVOid = 2;
constexpr size_t kVBelowThreshold = 3;
constexpr size_t kVLinePriceBase = 8;    // NewOrder: price of line l
constexpr size_t kVDeliveryCidBase = 8;  // Delivery: c_id per district
constexpr size_t kVDeliveryAmtBase = 18; // Delivery: refund per district
constexpr size_t kVSLItemBase = 8;       // StockLevel: item per (order,line)

Operation ReadOp(TableId table, txn::KeyFn key_fn,
                 txn::ReadFn on_read = nullptr,
                 LockMode mode = LockMode::kShared) {
  Operation op;
  op.type = OpType::kRead;
  op.table = table;
  op.mode = mode;
  op.key_fn = std::move(key_fn);
  op.on_read = std::move(on_read);
  return op;
}

Operation UpdateOp(TableId table, txn::KeyFn key_fn, txn::ReadFn on_read,
                   txn::ApplyFn on_apply) {
  Operation op;
  op.type = OpType::kUpdate;
  op.table = table;
  op.mode = LockMode::kExclusive;
  op.key_fn = std::move(key_fn);
  op.on_read = std::move(on_read);
  op.on_apply = std::move(on_apply);
  return op;
}

Operation InsertOp(TableId table, txn::KeyFn key_fn,
                   txn::MakeRecordFn make_record) {
  Operation op;
  op.type = OpType::kInsert;
  op.table = table;
  op.mode = LockMode::kExclusive;
  op.key_fn = std::move(key_fn);
  op.make_record = std::move(make_record);
  return op;
}

}  // namespace

// ---------------------------------------------------------------------------
// NewOrder. Params: [w, d, c, ol_cnt, invalid, (i_id, supply_w, qty) x cnt]
// ---------------------------------------------------------------------------
std::unique_ptr<Transaction> BuildNewOrder(std::vector<int64_t> params) {
  auto t = std::make_unique<Transaction>();
  t->txn_class = kNewOrderTxn;
  t->ctx.params = std::move(params);
  const auto& p = t->ctx.params;
  const uint64_t w = static_cast<uint64_t>(p[0]);
  const uint64_t d = static_cast<uint64_t>(p[1]);
  const int64_t ol_cnt = p[3];

  std::vector<Operation> ops;
  ops.reserve(5 + 3 * static_cast<size_t>(ol_cnt));
  // 0: warehouse tax — a shared lock on the warehouse contention point.
  ops.push_back(ReadOp(kWarehouse,
                       [w](const TxnContext&) { return WarehouseKey(w); },
                       [](TxnContext& c, const Record& r) {
                         c.SetVar(kVWTax, r.Get(WarehouseF::kTax));
                       }));
  // 1: district — reads D_TAX and the order id, increments D_NEXT_O_ID.
  //    The paper's first contention point.
  ops.push_back(UpdateOp(kDistrict,
                         [w, d](const TxnContext&) {
                           return DistrictKey(w, d);
                         },
                         [](TxnContext& c, const Record& r) {
                           c.SetVar(kVDTax, r.Get(DistrictF::kTax));
                           c.SetVar(kVOid, r.Get(DistrictF::kNextOid));
                         },
                         [](TxnContext&, Record* r) {
                           r->Add(DistrictF::kNextOid, 1);
                         }));
  // 2: customer (discount/credit in the spec; modeled as a shared read).
  const uint64_t cust = static_cast<uint64_t>(p[2]);
  ops.push_back(ReadOp(kCustomer, [w, d, cust](const TxnContext&) {
    return CustomerKey(w, d, cust);
  }));
  const int district_op = 1;
  // 3: ORDER insert, keyed by the district's order id (pk-dep).
  {
    Operation op = InsertOp(kOrder,
                            [w, d](const TxnContext& c) {
                              return OrderKey(
                                  w, d, static_cast<uint64_t>(c.Var(kVOid)));
                            },
                            [ol_cnt](const TxnContext& c) {
                              Record r(3, 32);
                              r.Set(OrderF::kCid, c.Param(2));
                              r.Set(OrderF::kOlCnt, ol_cnt);
                              r.Set(OrderF::kCarrier, 0);
                              return r;
                            });
    op.pk_deps = {district_op};
    op.co_located_with_dep = true;
    ops.push_back(std::move(op));
  }
  // 4: NEWORDER insert (same key space).
  {
    Operation op = InsertOp(kNewOrder,
                            [w, d](const TxnContext& c) {
                              return OrderKey(
                                  w, d, static_cast<uint64_t>(c.Var(kVOid)));
                            },
                            [](const TxnContext&) { return Record(1, 12); });
    op.pk_deps = {district_op};
    op.co_located_with_dep = true;
    ops.push_back(std::move(op));
  }
  // Per order line: item read (replicated table), stock update, OL insert.
  for (int64_t l = 0; l < ol_cnt; ++l) {
    const uint64_t i_id = static_cast<uint64_t>(p[5 + 3 * l]);
    const uint64_t supply_w = static_cast<uint64_t>(p[6 + 3 * l]);
    const int64_t qty = p[7 + 3 * l];
    const size_t price_var = kVLinePriceBase + static_cast<size_t>(l);

    Operation item = ReadOp(kItem,
                            [i_id](const TxnContext&) {
                              return ItemKey(i_id);
                            },
                            [price_var](TxnContext& c, const Record& r) {
                              c.SetVar(price_var, r.Get(ItemF::kPrice));
                            });
    item.access_local_replica = true;
    if (l == ol_cnt - 1) {
      // Spec clause 2.4.1.4: ~1% of NewOrders carry an unused item id and
      // must roll back after the work so far.
      item.guard = [](const TxnContext& c) { return c.Param(4) == 0; };
    }
    const int item_op = static_cast<int>(ops.size());
    ops.push_back(std::move(item));

    const bool remote = supply_w != w;
    ops.push_back(UpdateOp(
        kStock,
        [supply_w, i_id](const TxnContext&) {
          return StockKey(supply_w, i_id);
        },
        nullptr,
        [qty, remote](TxnContext&, Record* r) {
          const int64_t q = r->Get(StockF::kQuantity);
          r->Set(StockF::kQuantity, q - qty >= 10 ? q - qty : q - qty + 91);
          r->Add(StockF::kYtd, qty);
          r->Add(StockF::kOrderCnt, 1);
          if (remote) r->Add(StockF::kRemoteCnt, 1);
        }));

    Operation ol = InsertOp(
        kOrderLine,
        [w, d, l](const TxnContext& c) {
          return OrderLineKey(
              OrderKey(w, d, static_cast<uint64_t>(c.Var(kVOid))),
              static_cast<uint64_t>(l + 1));
        },
        [i_id, qty, price_var](const TxnContext& c) {
          Record r(4, 56);
          r.Set(OrderLineF::kIid, static_cast<int64_t>(i_id));
          r.Set(OrderLineF::kQty, qty);
          r.Set(OrderLineF::kAmount, c.Var(price_var) * qty);
          r.Set(OrderLineF::kDeliveryD, 0);
          return r;
        });
    ol.pk_deps = {district_op};
    ol.v_deps = {item_op};
    ol.co_located_with_dep = true;
    ops.push_back(std::move(ol));
  }

  t->SetOps(std::move(ops), /*num_vars=*/32);
  return t;
}

// ---------------------------------------------------------------------------
// Payment. Params: [w, d, c_w, c_d, c, amount, h_seq]
// ---------------------------------------------------------------------------
std::unique_ptr<Transaction> BuildPayment(std::vector<int64_t> params) {
  auto t = std::make_unique<Transaction>();
  t->txn_class = kPaymentTxn;
  t->ctx.params = std::move(params);
  const auto& p = t->ctx.params;
  const uint64_t w = static_cast<uint64_t>(p[0]);
  const uint64_t d = static_cast<uint64_t>(p[1]);
  const uint64_t cw = static_cast<uint64_t>(p[2]);
  const uint64_t cd = static_cast<uint64_t>(p[3]);
  const uint64_t c = static_cast<uint64_t>(p[4]);
  const int64_t amount = p[5];
  const uint64_t h_seq = static_cast<uint64_t>(p[6]);

  std::vector<Operation> ops;
  ops.reserve(4);
  // 0: W_YTD += amount — the paper's severest contention point: an
  //    exclusive lock on the single warehouse row.
  ops.push_back(UpdateOp(kWarehouse,
                         [w](const TxnContext&) { return WarehouseKey(w); },
                         nullptr, [amount](TxnContext&, Record* r) {
                           r->Add(WarehouseF::kYtd, amount);
                         }));
  // 1: D_YTD += amount.
  ops.push_back(UpdateOp(kDistrict,
                         [w, d](const TxnContext&) {
                           return DistrictKey(w, d);
                         },
                         nullptr, [amount](TxnContext&, Record* r) {
                           r->Add(DistrictF::kYtd, amount);
                         }));
  // 2: customer balance (possibly at a remote warehouse — 15% by default).
  ops.push_back(UpdateOp(kCustomer,
                         [cw, cd, c](const TxnContext&) {
                           return CustomerKey(cw, cd, c);
                         },
                         nullptr, [amount](TxnContext&, Record* r) {
                           r->Add(CustomerF::kBalance, -amount);
                           r->Add(CustomerF::kYtdPayment, amount);
                           r->Add(CustomerF::kPaymentCnt, 1);
                         }));
  // 3: history insert at the home warehouse.
  ops.push_back(InsertOp(kHistory,
                         [w, h_seq](const TxnContext&) {
                           return HistoryKey(w, h_seq);
                         },
                         [amount](const TxnContext&) {
                           Record r(1, 48);
                           r.Set(HistoryF::kAmount, amount);
                           return r;
                         }));
  t->SetOps(std::move(ops), /*num_vars=*/8);
  return t;
}

// ---------------------------------------------------------------------------
// OrderStatus. Params: [w, d, c, o_guess]
// ---------------------------------------------------------------------------
std::unique_ptr<Transaction> BuildOrderStatus(std::vector<int64_t> params) {
  auto t = std::make_unique<Transaction>();
  t->txn_class = kOrderStatusTxn;
  t->ctx.params = std::move(params);
  const auto& p = t->ctx.params;
  const uint64_t w = static_cast<uint64_t>(p[0]);
  const uint64_t d = static_cast<uint64_t>(p[1]);
  const uint64_t c = static_cast<uint64_t>(p[2]);
  const uint64_t o = static_cast<uint64_t>(p[3]);

  std::vector<Operation> ops;
  ops.reserve(5);
  ops.push_back(ReadOp(kCustomer, [w, d, c](const TxnContext&) {
    return CustomerKey(w, d, c);
  }));
  // The order probe may miss (the guess comes from a generator-side
  // counter); a miss skips the order-line reads.
  Operation order = ReadOp(kOrder, [w, d, o](const TxnContext&) {
    return OrderKey(w, d, o);
  });
  order.may_be_missing = true;
  order.skip_group = 0;
  ops.push_back(std::move(order));
  for (uint64_t l = 1; l <= 3; ++l) {
    Operation ol = ReadOp(kOrderLine, [w, d, o, l](const TxnContext&) {
      return OrderLineKey(OrderKey(w, d, o), l);
    });
    ol.may_be_missing = true;
    ol.skip_group = 0;
    ops.push_back(std::move(ol));
  }
  t->SetOps(std::move(ops), /*num_vars=*/8);
  return t;
}

// ---------------------------------------------------------------------------
// Delivery. Params: [w, carrier, o_guess[0..9]]
// ---------------------------------------------------------------------------
std::unique_ptr<Transaction> BuildDelivery(std::vector<int64_t> params) {
  auto t = std::make_unique<Transaction>();
  t->txn_class = kDeliveryTxn;
  t->ctx.params = std::move(params);
  const auto& p = t->ctx.params;
  const uint64_t w = static_cast<uint64_t>(p[0]);
  const int64_t carrier = p[1];

  std::vector<Operation> ops;
  ops.reserve(4 * kDistrictsPerWarehouse);
  for (uint64_t d = 0; d < kDistrictsPerWarehouse; ++d) {
    const uint64_t o = static_cast<uint64_t>(p[2 + d]);
    const int group = static_cast<int>(d);
    const size_t cid_var = kVDeliveryCidBase + d;
    const size_t amt_var = kVDeliveryAmtBase + d;

    // a) consume the NEWORDER row; if it is absent (nothing undelivered or
    //    already delivered), the whole district group is skipped.
    Operation no;
    no.type = OpType::kErase;
    no.table = kNewOrder;
    no.mode = LockMode::kExclusive;
    no.key_fn = [w, d, o](const TxnContext&) { return OrderKey(w, d, o); };
    no.may_be_missing = true;
    no.skip_group = group;
    ops.push_back(std::move(no));

    // b) stamp the carrier on the ORDER row; read the customer id.
    Operation order = UpdateOp(kOrder,
                               [w, d, o](const TxnContext&) {
                                 return OrderKey(w, d, o);
                               },
                               [cid_var](TxnContext& c, const Record& r) {
                                 c.SetVar(cid_var, r.Get(OrderF::kCid));
                               },
                               [carrier](TxnContext&, Record* r) {
                                 r->Set(OrderF::kCarrier, carrier);
                               });
    order.skip_group = group;
    ops.push_back(std::move(order));

    // c) stamp the delivery date on the first order line; read its amount.
    Operation ol = UpdateOp(kOrderLine,
                            [w, d, o](const TxnContext&) {
                              return OrderLineKey(OrderKey(w, d, o), 1);
                            },
                            [amt_var](TxnContext& c, const Record& r) {
                              c.SetVar(amt_var, r.Get(OrderLineF::kAmount));
                            },
                            [](TxnContext&, Record* r) {
                              r->Set(OrderLineF::kDeliveryD, 1);
                            });
    ol.skip_group = group;
    ops.push_back(std::move(ol));

    // d) credit the customer; its key derives from the ORDER read (pk-dep,
    //    co-located: same warehouse and district).
    const int order_op = static_cast<int>(ops.size()) - 2;
    Operation cust = UpdateOp(
        kCustomer,
        [w, d, cid_var](const TxnContext& c) {
          return CustomerKey(w, d, static_cast<uint64_t>(c.Var(cid_var)));
        },
        nullptr,
        [amt_var](TxnContext& c, Record* r) {
          r->Add(CustomerF::kBalance, c.Var(amt_var));
          r->Add(CustomerF::kDeliveryCnt, 1);
        });
    cust.pk_deps = {order_op};
    cust.v_deps = {order_op + 1};
    cust.co_located_with_dep = true;
    cust.skip_group = group;
    ops.push_back(std::move(cust));
  }
  t->SetOps(std::move(ops), /*num_vars=*/32);
  return t;
}

// ---------------------------------------------------------------------------
// StockLevel. Params: [w, d, threshold, num_orders]
// ---------------------------------------------------------------------------
std::unique_ptr<Transaction> BuildStockLevel(std::vector<int64_t> params) {
  auto t = std::make_unique<Transaction>();
  t->txn_class = kStockLevelTxn;
  t->ctx.params = std::move(params);
  const auto& p = t->ctx.params;
  const uint64_t w = static_cast<uint64_t>(p[0]);
  const uint64_t d = static_cast<uint64_t>(p[1]);
  const int64_t threshold = p[2];
  const uint64_t num_orders = static_cast<uint64_t>(p[3]);
  constexpr uint64_t kLinesPerOrder = 5;

  std::vector<Operation> ops;
  ops.reserve(1 + 2 * kLinesPerOrder * num_orders);
  // 0: D_NEXT_O_ID — shared lock on the district contention point.
  ops.push_back(ReadOp(kDistrict,
                       [w, d](const TxnContext&) {
                         return DistrictKey(w, d);
                       },
                       [](TxnContext& c, const Record& r) {
                         c.SetVar(kVOid, r.Get(DistrictF::kNextOid));
                       }));
  for (uint64_t j = 1; j <= num_orders; ++j) {
    const int group = static_cast<int>(j);
    for (uint64_t l = 1; l <= kLinesPerOrder; ++l) {
      const size_t item_var =
          kVSLItemBase + (j - 1) * kLinesPerOrder + (l - 1);
      // Order-line keys derive from the district's next order id.
      Operation ol = ReadOp(
          kOrderLine,
          [w, d, j, l](const TxnContext& c) {
            const uint64_t next = static_cast<uint64_t>(c.Var(kVOid));
            const uint64_t o = next > j ? next - j : 0;  // 0 never exists
            return OrderLineKey(OrderKey(w, d, o), l);
          },
          [item_var](TxnContext& c, const Record& r) {
            c.SetVar(item_var, r.Get(OrderLineF::kIid));
          });
      ol.pk_deps = {0};
      ol.co_located_with_dep = true;
      ol.may_be_missing = true;
      // Line granularity: a missing line only skips its own stock read.
      ol.skip_group = group * 100 + static_cast<int>(l);
      const int ol_op = static_cast<int>(ops.size());
      ops.push_back(std::move(ol));

      Operation stock = ReadOp(
          kStock,
          [w, item_var](const TxnContext& c) {
            return StockKey(w, static_cast<uint64_t>(c.Var(item_var)));
          },
          [threshold](TxnContext& c, const Record& r) {
            if (r.Get(StockF::kQuantity) < threshold) {
              c.SetVar(kVBelowThreshold, c.Var(kVBelowThreshold) + 1);
            }
          });
      stock.pk_deps = {ol_op};
      stock.co_located_with_dep = true;
      stock.skip_group = group * 100 + static_cast<int>(l);
      ops.push_back(std::move(stock));
    }
  }
  t->SetOps(std::move(ops), /*num_vars=*/40);
  return t;
}

// ---------------------------------------------------------------------------
// Workload source
// ---------------------------------------------------------------------------

TpccWorkload::TpccWorkload(Options options) : options_(options) {
  CHILLER_CHECK(options_.pct_new_order + options_.pct_payment +
                    options_.pct_order_status + options_.pct_delivery +
                    options_.pct_stock_level ==
                100)
      << "mix must sum to 100";
  history_seq_.assign(options_.num_warehouses, 0);
  delivery_next_.assign(
      options_.num_warehouses * kDistrictsPerWarehouse, 1);
  orders_issued_.assign(
      options_.num_warehouses * kDistrictsPerWarehouse, 0);
}

std::string TpccWorkload::ClassName(uint32_t cls) const {
  switch (cls) {
    case kNewOrderTxn:
      return "NewOrder";
    case kPaymentTxn:
      return "Payment";
    case kOrderStatusTxn:
      return "OrderStatus";
    case kDeliveryTxn:
      return "Delivery";
    case kStockLevelTxn:
      return "StockLevel";
  }
  return "?";
}

std::vector<int64_t> TpccWorkload::NewOrderParams(uint64_t w, Rng* rng) {
  const uint64_t d = rng->Uniform(kDistrictsPerWarehouse);
  const uint64_t c = RandomCustomer(rng);
  const int64_t ol_cnt = static_cast<int64_t>(rng->UniformRange(5, 15));
  const int64_t invalid = rng->Bernoulli(options_.invalid_item_prob) ? 1 : 0;
  std::vector<int64_t> p = {static_cast<int64_t>(w), static_cast<int64_t>(d),
                            static_cast<int64_t>(c), ol_cnt, invalid};
  // "At least one remote item" with the configured probability.
  int64_t remote_line = -1;
  if (options_.num_warehouses > 1 &&
      rng->Bernoulli(options_.remote_new_order_prob)) {
    remote_line = static_cast<int64_t>(rng->Uniform(
        static_cast<uint64_t>(ol_cnt)));
  }
  for (int64_t l = 0; l < ol_cnt; ++l) {
    uint64_t supply = w;
    if (l == remote_line) {
      do {
        supply = rng->Uniform(options_.num_warehouses);
      } while (supply == w);
    }
    p.push_back(static_cast<int64_t>(RandomItem(rng)));
    p.push_back(static_cast<int64_t>(supply));
    p.push_back(static_cast<int64_t>(rng->UniformRange(1, 10)));
  }
  ++orders_issued_[w * kDistrictsPerWarehouse + d];
  return p;
}

std::vector<int64_t> TpccWorkload::PaymentParams(uint64_t w, Rng* rng) {
  const uint64_t d = rng->Uniform(kDistrictsPerWarehouse);
  uint64_t cw = w, cd = d;
  if (options_.num_warehouses > 1 &&
      rng->Bernoulli(options_.remote_payment_prob)) {
    do {
      cw = rng->Uniform(options_.num_warehouses);
    } while (cw == w);
    cd = rng->Uniform(kDistrictsPerWarehouse);
  }
  const uint64_t c = RandomCustomer(rng);
  const int64_t amount = static_cast<int64_t>(rng->UniformRange(100, 500000));
  return {static_cast<int64_t>(w),
          static_cast<int64_t>(d),
          static_cast<int64_t>(cw),
          static_cast<int64_t>(cd),
          static_cast<int64_t>(c),
          amount,
          static_cast<int64_t>(history_seq_[w]++)};
}

std::unique_ptr<Transaction> TpccWorkload::Next(PartitionId home, Rng* rng) {
  const uint64_t w = home % options_.num_warehouses;
  const uint64_t roll = rng->Uniform(100);
  const uint32_t no_edge = options_.pct_new_order;
  const uint32_t pay_edge = no_edge + options_.pct_payment;
  const uint32_t os_edge = pay_edge + options_.pct_order_status;
  const uint32_t dl_edge = os_edge + options_.pct_delivery;

  if (roll < no_edge) return BuildNewOrder(NewOrderParams(w, rng));
  if (roll < pay_edge) return BuildPayment(PaymentParams(w, rng));
  if (roll < os_edge) {
    const uint64_t d = rng->Uniform(kDistrictsPerWarehouse);
    const uint64_t issued = orders_issued_[w * kDistrictsPerWarehouse + d];
    const uint64_t guess = issued == 0 ? 1 : 1 + rng->Uniform(issued);
    return BuildOrderStatus({static_cast<int64_t>(w),
                             static_cast<int64_t>(d),
                             static_cast<int64_t>(RandomCustomer(rng)),
                             static_cast<int64_t>(guess)});
  }
  if (roll < dl_edge) {
    std::vector<int64_t> p = {static_cast<int64_t>(w),
                              static_cast<int64_t>(rng->UniformRange(1, 10))};
    for (uint64_t d = 0; d < kDistrictsPerWarehouse; ++d) {
      p.push_back(static_cast<int64_t>(
          delivery_next_[w * kDistrictsPerWarehouse + d]++));
    }
    return BuildDelivery(std::move(p));
  }
  return BuildStockLevel({static_cast<int64_t>(w),
                          static_cast<int64_t>(
                              rng->Uniform(kDistrictsPerWarehouse)),
                          static_cast<int64_t>(rng->UniformRange(10, 20)),
                          static_cast<int64_t>(options_.stock_level_orders)});
}

std::vector<partition::TxnAccessTrace> TpccWorkload::GenerateTrace(
    size_t n, Rng* rng) {
  std::vector<partition::TxnAccessTrace> traces;
  traces.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t w = rng->Uniform(options_.num_warehouses);
    partition::TxnAccessTrace trace;
    if (rng->Uniform(100) < options_.pct_new_order +
                               options_.pct_order_status +
                               options_.pct_delivery +
                               options_.pct_stock_level) {
      // Approximate the read/write set of a NewOrder (the dominant class).
      trace.txn_class = kNewOrderTxn;
      auto p = NewOrderParams(w, rng);
      trace.accesses.emplace_back(RecordId{kWarehouse, WarehouseKey(w)},
                                  false);
      trace.accesses.emplace_back(
          RecordId{kDistrict,
                   DistrictKey(w, static_cast<uint64_t>(p[1]))},
          true);
      trace.accesses.emplace_back(
          RecordId{kCustomer,
                   CustomerKey(w, static_cast<uint64_t>(p[1]),
                               static_cast<uint64_t>(p[2]))},
          false);
      for (int64_t l = 0; l < p[3]; ++l) {
        trace.accesses.emplace_back(
            RecordId{kStock, StockKey(static_cast<uint64_t>(p[6 + 3 * l]),
                                      static_cast<uint64_t>(p[5 + 3 * l]))},
            true);
      }
    } else {
      trace.txn_class = kPaymentTxn;
      auto p = PaymentParams(w, rng);
      trace.accesses.emplace_back(RecordId{kWarehouse, WarehouseKey(w)},
                                  true);
      trace.accesses.emplace_back(
          RecordId{kDistrict,
                   DistrictKey(w, static_cast<uint64_t>(p[1]))},
          true);
      trace.accesses.emplace_back(
          RecordId{kCustomer,
                   CustomerKey(static_cast<uint64_t>(p[2]),
                               static_cast<uint64_t>(p[3]),
                               static_cast<uint64_t>(p[4]))},
          true);
    }
    traces.push_back(std::move(trace));
  }
  return traces;
}

}  // namespace chiller::workload::tpcc
