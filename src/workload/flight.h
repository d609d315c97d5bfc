// The flight-booking stored procedure of paper Figure 4.
//
// Reserves a seat on a flight and deducts the cost from the customer:
//   f = read(flight, flight_id)            -- hot record
//   c = read_with_wl(customer, cust_id)
//   t = read(tax, c.state)                 -- pk-dep on c
//   if (c.balance >= cost && f.seats > 0):
//     update(f, seats - 1)
//     update(c, balance - cost)            -- v-dep on inner (cost)
//     insert(seats, [flight_id, seat_id])  -- pk-dep on f, co-located
//
// With the flight record hot, the planner puts {fread, fupd, sins} in the
// inner region and {cread, tread, cupd} in the outer region, deferring
// cupd's apply to outer phase 2 — exactly the decomposition in the paper.
#ifndef CHILLER_WORKLOAD_FLIGHT_H_
#define CHILLER_WORKLOAD_FLIGHT_H_

#include <memory>
#include <string>
#include <vector>

#include "cc/driver.h"
#include "partition/lookup_table.h"
#include "storage/record.h"
#include "txn/transaction.h"

namespace chiller::workload {

/// Table ids and record layouts for the flight schema.
struct FlightSchema {
  static constexpr TableId kFlight = 0;   // fields: price, seats
  static constexpr TableId kCustomer = 1; // fields: balance, state, name
  static constexpr TableId kTax = 2;      // fields: rate
  static constexpr TableId kSeats = 3;    // fields: cust_id, cust_name
  /// Seats are keyed flight_id * kSeatStride + seat_index, so the flight id
  /// is recoverable from the key (the co-location guarantee).
  static constexpr Key kSeatStride = 10000;

  static std::vector<storage::TableSpec> Specs();
};

/// Context variable slots used by the procedure's closures.
struct FlightVars {
  static constexpr size_t kBalance = 0;
  static constexpr size_t kState = 1;
  static constexpr size_t kName = 2;
  static constexpr size_t kPrice = 3;
  static constexpr size_t kSeatsLeft = 4;
  static constexpr size_t kTaxRate = 5;
  static constexpr size_t kCost = 6;
  static constexpr size_t kSeatId = 7;
};

/// Builds one booking transaction. params = {flight_id, cust_id}.
std::unique_ptr<txn::Transaction> MakeBookingTxn(Key flight_id, Key cust_id);

/// Partitioner for the flight schema: flights (and their seats, via the key
/// stride) partition by flight id; customers and taxes hash. Marks the
/// `hot_flights` lowest flight ids as hot.
class FlightPartitioner : public partition::RecordPartitioner {
 public:
  FlightPartitioner(uint32_t num_partitions, Key hot_flights)
      : num_partitions_(num_partitions), hot_flights_(hot_flights) {}

  PartitionId PartitionOf(const RecordId& rid) const override;
  bool IsHot(const RecordId& rid) const override;
  size_t LookupEntries() const override {
    return static_cast<size_t>(hot_flights_);
  }

 private:
  uint32_t num_partitions_;
  Key hot_flights_;
};

/// Workload source: a configurable mix of bookings over a small set of hot
/// flights and a long tail of cold ones.
class FlightWorkload : public cc::WorkloadSource {
 public:
  struct Options {
    Key num_flights = 1000;
    Key num_customers = 100000;
    Key num_states = 50;
    Key hot_flights = 10;
    /// Probability a booking targets a hot flight.
    double hot_fraction = 0.8;
    /// Must stay below FlightSchema::kSeatStride so seat keys never collide
    /// across flights (checked at load time).
    int64_t initial_seats = 5000;
    int64_t initial_balance = 1000000;
  };

  explicit FlightWorkload(Options options) : options_(options) {}

  const Options& options() const { return options_; }

  /// Loads flights, customers, taxes into `load` (called once per record).
  void ForEachRecord(
      const std::function<void(const RecordId&, const storage::Record&)>&
          load) const;

  std::unique_ptr<txn::Transaction> Next(PartitionId home, Rng* rng) override;
  uint32_t NumClasses() const override { return 1; }
  std::string ClassName(uint32_t) const override { return "book"; }

 private:
  Options options_;
};

}  // namespace chiller::workload

#endif  // CHILLER_WORKLOAD_FLIGHT_H_
