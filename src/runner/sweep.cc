#include "runner/sweep.h"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <optional>
#include <utility>

#if defined(__linux__)
#include <unistd.h>
#endif

#include "common/logging.h"
#include "obs/trace_recorder.h"
#include "sim/sharded_simulator.h"
#include "storage/bucket.h"
#include "workload/flight.h"
#include "workload/instacart.h"
#include "workload/tpcc/tpcc_schema.h"
#include "workload/ycsb.h"

namespace chiller::runner {

namespace {

/// Heap bytes one store's bucket arrays take before any row is loaded.
uint64_t BucketArrayBytes(const std::vector<storage::TableSpec>& schema) {
  uint64_t buckets = 0;
  for (const storage::TableSpec& t : schema) buckets += t.buckets_per_partition;
  return buckets * sizeof(storage::Bucket);
}

/// Heap bytes `rows` rows of `table` add to one store. Each (key, record)
/// entry sits in its bucket's entry block; at the schemas' load factor of
/// about 1/2 most blocks hold one entry, so the block header and malloc
/// rounding add about kMallocSlack per row. A record wider than the inline
/// words keeps its fields in one more heap array.
uint64_t RowBytes(const storage::TableSpec& table, uint64_t rows) {
  constexpr uint64_t kMallocSlack = 16;
  uint64_t per_row = sizeof(Key) + sizeof(storage::Record) + kMallocSlack;
  if (table.num_fields > storage::Record::kInlineFields) {
    per_row += table.num_fields * sizeof(int64_t) + kMallocSlack;
  }
  return rows * per_row;
}

}  // namespace

uint32_t ResolveJobs(uint32_t jobs) {
  if (jobs != 0) return jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<uint32_t>(hw);
}

uint32_t SweepExecutor::EffectiveJobs(
    const std::vector<ScenarioSpec>& specs) const {
  uint32_t max_shards = 1;
  for (const ScenarioSpec& s : specs) {
    max_shards = std::max(max_shards, sim::ShardedSimulator::EffectiveShards(
                                          s.shards, s.nodes + 1));
  }
  return std::max<uint32_t>(1, jobs_ / max_shards);
}

std::vector<StatusOr<ScenarioResult>> SweepExecutor::Run(
    const std::vector<ScenarioSpec>& specs, const ProgressFn& progress) const {
  std::mutex progress_mu;

  // Memory-budget gate: a worker reserves its spec's estimated footprint
  // before wiring the scenario and releases it after. The "alone" clause
  // (a worker with nothing else in flight always proceeds) guarantees
  // progress for specs larger than the whole budget.
  std::mutex budget_mu;
  std::condition_variable budget_cv;
  uint64_t budget_in_use = 0;

  auto run_one = [&](size_t i) -> StatusOr<ScenarioResult> {
    const uint64_t charge =
        mem_budget_bytes_ == 0 ? 0 : EstimateFootprint(specs[i]);
    if (charge != 0) {
      std::unique_lock<std::mutex> lock(budget_mu);
      budget_cv.wait(lock, [&] {
        return budget_in_use == 0 ||
               budget_in_use + charge <= mem_budget_bytes_;
      });
      budget_in_use += charge;
    }
    StatusOr<ScenarioResult> result = ScenarioRunner::Run(specs[i]);
    if (charge != 0) {
      {
        std::lock_guard<std::mutex> lock(budget_mu);
        budget_in_use -= charge;
      }
      budget_cv.notify_all();
    }
    if (progress) {
      std::lock_guard<std::mutex> lock(progress_mu);
      progress(i, result);
    }
    return result;
  };
  // Sharded specs occupy several cores each; shrink the worker pool so
  // jobs x shards stays at the machine scale the user asked for.
  const uint32_t workers = EffectiveJobs(specs);
  if (workers != jobs_) {
    CHILLER_LOG(INFO) << "[sweep] sharded scenarios in the grid: running "
                      << workers << " sweep worker(s) instead of " << jobs_
                      << " so jobs x shards does not oversubscribe";
  }
  // ParallelMap needs default-constructed slots; StatusOr has no default
  // state, so map into optionals and unwrap after the barrier.
  auto slots = ParallelMap(
      workers, specs.size(),
      [&](size_t i) -> std::optional<StatusOr<ScenarioResult>> {
        return run_one(i);
      });
  std::vector<StatusOr<ScenarioResult>> results;
  results.reserve(slots.size());
  for (auto& slot : slots) results.push_back(std::move(*slot));
  if (!trace_out_.empty()) {
    // Merge this call's traces into the cumulative event buffer in spec
    // order (completion order is scheduling-dependent; spec order is not)
    // and rewrite the whole file, so the trace on disk is valid JSON after
    // every Run call. Each scenario's nodes get a fresh pid range.
    for (const StatusOr<ScenarioResult>& r : results) {
      if (!r.ok() || r->trace == nullptr || !r->trace->active()) continue;
      const std::string label =
          r->spec.label.empty() ? r->spec.workload + "/" + r->spec.protocol
                                : r->spec.label;
      r->trace->AppendEvents(&trace_events_, trace_pid_base_, label);
      trace_pid_base_ += r->trace->num_pids();
    }
    const std::string json = obs::TraceRecorder::WrapTrace(trace_events_);
    std::FILE* f = std::fopen(trace_out_.c_str(), "w");
    if (f == nullptr) {
      CHILLER_LOG(WARN) << "[sweep] could not open trace output "
                        << trace_out_;
    } else {
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
    }
  }
  return results;
}

uint64_t EstimateFootprint(const ScenarioSpec& spec) {
  // Every partition is stored replication_degree times (primary + replicas).
  // Each store pays its schema's bucket arrays up front, and every loaded
  // row is added to each copy. Tables that only grow at run time (TPC-C's
  // order family, flight seats, instacart orders) start empty.
  const uint64_t copies = spec.replication_degree;
  const uint64_t stores = copies * spec.partitions();
  const OptionMap& o = spec.options;
  if (spec.workload == "tpcc" || spec.workload == "adaptive-tpcc") {
    namespace tpcc = workload::tpcc;
    const auto schema = tpcc::Schema();
    const uint64_t warehouses = o.GetInt("num_warehouses", spec.partitions());
    // ITEM is replicated into every store.
    uint64_t bytes = stores * (BucketArrayBytes(schema) +
                               RowBytes(schema[tpcc::kItem], tpcc::kItemCount));
    const std::pair<tpcc::Table, uint64_t> rows_per_warehouse[] = {
        {tpcc::kWarehouse, 1},
        {tpcc::kDistrict, tpcc::kDistrictsPerWarehouse},
        {tpcc::kCustomer,
         tpcc::kDistrictsPerWarehouse * tpcc::kCustomersPerDistrict},
        {tpcc::kStock, tpcc::kItemCount},
    };
    for (const auto& [table, rows] : rows_per_warehouse) {
      bytes += copies * RowBytes(schema[table], warehouses * rows);
    }
    return bytes;
  }
  if (spec.workload == "ycsb" || spec.workload == "adaptive") {
    const auto schema = workload::ycsb::Schema();
    const uint64_t rows = spec.partitions() *
                          o.GetInt("keys_per_partition", 10000);
    return stores * BucketArrayBytes(schema) +
           copies * RowBytes(schema[workload::ycsb::kMain], rows);
  }
  if (spec.workload == "instacart") {
    const auto schema = workload::instacart::Schema();
    return stores * BucketArrayBytes(schema) +
           copies * RowBytes(schema[workload::instacart::kStock],
                             o.GetInt("num_products", 49688));
  }
  if (spec.workload == "flight") {
    using workload::FlightSchema;
    const auto schema = FlightSchema::Specs();
    return stores * BucketArrayBytes(schema) +
           copies * (RowBytes(schema[FlightSchema::kFlight],
                              o.GetInt("num_flights", 1000)) +
                     RowBytes(schema[FlightSchema::kCustomer],
                              o.GetInt("num_customers", 100000)) +
                     RowBytes(schema[FlightSchema::kTax],
                              o.GetInt("num_states", 50)));
  }
  return 0;  // unknown workload: never gate on a guess
}

uint64_t CurrentRssBytes() {
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long total_pages = 0;
  unsigned long long resident_pages = 0;
  const int parsed = std::fscanf(f, "%llu %llu", &total_pages,
                                 &resident_pages);
  std::fclose(f);
  if (parsed != 2) return 0;
  const long page = sysconf(_SC_PAGESIZE);
  if (page <= 0) return 0;
  return static_cast<uint64_t>(resident_pages) * static_cast<uint64_t>(page);
#else
  return 0;
#endif
}

}  // namespace chiller::runner
