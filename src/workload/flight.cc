#include "workload/flight.h"

#include <utility>

#include "common/logging.h"

namespace chiller::workload {

namespace {
using storage::LockMode;
using storage::Record;
using txn::Operation;
using txn::OpType;
using txn::Transaction;
using txn::TxnContext;
using V = FlightVars;
}  // namespace

std::vector<storage::TableSpec> FlightSchema::Specs() {
  return {
      {.name = "flight", .id = kFlight, .num_fields = 2, .wire_bytes = 64,
       .buckets_per_partition = 1 << 10},
      {.name = "customer", .id = kCustomer, .num_fields = 3, .wire_bytes = 96,
       .buckets_per_partition = 1 << 14},
      {.name = "tax", .id = kTax, .num_fields = 1, .wire_bytes = 16,
       .buckets_per_partition = 1 << 8},
      {.name = "seats", .id = kSeats, .num_fields = 2, .wire_bytes = 48,
       .buckets_per_partition = 1 << 14},
  };
}

std::unique_ptr<txn::Transaction> MakeBookingTxn(Key flight_id, Key cust_id) {
  auto t = std::make_unique<Transaction>();
  t->txn_class = 0;
  t->ctx.params = {static_cast<int64_t>(flight_id),
                   static_cast<int64_t>(cust_id)};

  // Op 0 (fread): read the flight with a write lock — it is updated below.
  Operation fread;
  fread.template_id = 0;
  fread.type = OpType::kRead;
  fread.table = FlightSchema::kFlight;
  fread.mode = LockMode::kExclusive;
  fread.key_fn = [](const TxnContext& c) {
    return static_cast<Key>(c.Param(0));
  };
  fread.on_read = [](TxnContext& c, const Record& r) {
    c.SetVar(V::kPrice, r.Get(0));
    c.SetVar(V::kSeatsLeft, r.Get(1));
  };

  // Op 1 (cread): read the customer with a write lock (Figure 4's
  // read_with_wl) — the balance update below aliases this lock.
  Operation cread;
  cread.template_id = 1;
  cread.type = OpType::kRead;
  cread.table = FlightSchema::kCustomer;
  cread.mode = LockMode::kExclusive;
  cread.key_fn = [](const TxnContext& c) {
    return static_cast<Key>(c.Param(1));
  };
  cread.on_read = [](TxnContext& c, const Record& r) {
    c.SetVar(V::kBalance, r.Get(0));
    c.SetVar(V::kState, r.Get(1));
    c.SetVar(V::kName, r.Get(2));
  };

  // Op 2 (tread): the tax row's key is the customer's state — a pk-dep.
  Operation tread;
  tread.template_id = 2;
  tread.type = OpType::kRead;
  tread.table = FlightSchema::kTax;
  tread.mode = LockMode::kShared;
  tread.pk_deps = {1};
  tread.key_fn = [](const TxnContext& c) {
    return static_cast<Key>(c.Var(V::kState));
  };
  tread.on_read = [](TxnContext& c, const Record& r) {
    c.SetVar(V::kTaxRate, r.Get(0));
  };

  // Op 3 (fupd): decrement seats, guarded by the availability/balance check.
  Operation fupd;
  fupd.template_id = 3;
  fupd.type = OpType::kUpdate;
  fupd.table = FlightSchema::kFlight;
  fupd.mode = LockMode::kExclusive;
  fupd.v_deps = {0, 1, 2};
  fupd.key_fn = [](const TxnContext& c) {
    return static_cast<Key>(c.Param(0));
  };
  fupd.guard = [](const TxnContext& c) {
    const int64_t cost = c.Var(V::kPrice) + c.Var(V::kTaxRate);
    return c.Var(V::kBalance) >= cost && c.Var(V::kSeatsLeft) > 0;
  };
  fupd.on_apply = [](TxnContext& c, Record* r) {
    c.SetVar(V::kCost, c.Var(V::kPrice) + c.Var(V::kTaxRate));
    c.SetVar(V::kSeatId, r->Get(1));
    r->Add(1, -1);
  };

  // Op 4 (cupd): deduct the cost — value-depends on the inner-computed
  // cost, so under two-region execution its apply defers to outer phase 2.
  Operation cupd;
  cupd.template_id = 4;
  cupd.type = OpType::kUpdate;
  cupd.table = FlightSchema::kCustomer;
  cupd.mode = LockMode::kExclusive;
  cupd.v_deps = {1, 3};
  cupd.key_fn = [](const TxnContext& c) {
    return static_cast<Key>(c.Param(1));
  };
  cupd.on_apply = [](TxnContext& c, Record* r) {
    r->Add(0, -c.Var(V::kCost));
  };

  // Op 5 (sins): insert the seat assignment; key derives from the flight
  // record (pk-dep) and lands on the flight's partition (co-located).
  Operation sins;
  sins.template_id = 5;
  sins.type = OpType::kInsert;
  sins.table = FlightSchema::kSeats;
  sins.mode = LockMode::kExclusive;
  sins.pk_deps = {0, 3};
  sins.v_deps = {1};
  sins.co_located_with_dep = true;
  sins.key_fn = [](const TxnContext& c) {
    return static_cast<Key>(c.Param(0)) * FlightSchema::kSeatStride +
           static_cast<Key>(c.Var(V::kSeatId));
  };
  sins.make_record = [](const TxnContext& c) {
    Record r(2, 48);
    r.Set(0, c.Param(1));
    r.Set(1, c.Var(V::kName));
    return r;
  };

  t->SetOps({std::move(fread), std::move(cread), std::move(tread),
             std::move(fupd), std::move(cupd), std::move(sins)},
            /*num_vars=*/8);
  return t;
}

PartitionId FlightPartitioner::PartitionOf(const RecordId& rid) const {
  switch (rid.table) {
    case FlightSchema::kFlight:
      return static_cast<PartitionId>(rid.key % num_partitions_);
    case FlightSchema::kSeats:
      // Seats follow their flight: the co-location guarantee.
      return static_cast<PartitionId>((rid.key / FlightSchema::kSeatStride) %
                                      num_partitions_);
    default:
      return static_cast<PartitionId>(RecordIdHash{}(rid) % num_partitions_);
  }
}

bool FlightPartitioner::IsHot(const RecordId& rid) const {
  return rid.table == FlightSchema::kFlight && rid.key < hot_flights_;
}

void FlightWorkload::ForEachRecord(
    const std::function<void(const RecordId&, const storage::Record&)>& load)
    const {
  CHILLER_CHECK(options_.initial_seats <
                static_cast<int64_t>(FlightSchema::kSeatStride))
      << "seat ids would collide across flights";
  for (Key f = 0; f < options_.num_flights; ++f) {
    storage::Record r(2, 64);
    r.Set(0, 100 + static_cast<int64_t>(f % 400));  // price
    r.Set(1, options_.initial_seats);
    load(RecordId{FlightSchema::kFlight, f}, r);
  }
  for (Key c = 0; c < options_.num_customers; ++c) {
    storage::Record r(3, 96);
    r.Set(0, options_.initial_balance);
    r.Set(1, static_cast<int64_t>(c % options_.num_states));
    r.Set(2, static_cast<int64_t>(c));  // "name"
    load(RecordId{FlightSchema::kCustomer, c}, r);
  }
  for (Key s = 0; s < options_.num_states; ++s) {
    storage::Record r(1, 16);
    r.Set(0, static_cast<int64_t>(s % 20));  // flat tax amount
    load(RecordId{FlightSchema::kTax, s}, r);
  }
}

std::unique_ptr<txn::Transaction> FlightWorkload::Next(PartitionId home,
                                                       Rng* rng) {
  (void)home;
  Key flight;
  if (rng->Bernoulli(options_.hot_fraction)) {
    flight = rng->Uniform(options_.hot_flights);
  } else {
    flight = options_.hot_flights +
             rng->Uniform(options_.num_flights - options_.hot_flights);
  }
  const Key cust = rng->Uniform(options_.num_customers);
  return MakeBookingTxn(flight, cust);
}

}  // namespace chiller::workload
