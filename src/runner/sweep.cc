#include "runner/sweep.h"

#include <algorithm>
#include <cmath>
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
#include "storage/bucket.h"
#include "workload/flight.h"
#include "workload/instacart.h"
#include "workload/tpcc/tpcc_schema.h"
#include "workload/ycsb.h"

namespace chiller::runner {

namespace {

/// printf-style float rendering for CHILLER_LOG lines (the stream carries
/// strings; precision lives in the format).
std::string Fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, v);
  return buf;
}

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

double FootprintCalibrationCache::Clamp(double factor) {
  if (!std::isfinite(factor)) return 1.0;
  return std::clamp(factor, kMinFactor, kMaxFactor);
}

bool FootprintCalibrationCache::Load(const std::string& path,
                                     double* factor) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return false;
  double stored = 0.0;
  const int parsed = std::fscanf(f, "chiller-footprint-cache v1 %lf",
                                 &stored);
  std::fclose(f);
  if (parsed != 1 || !std::isfinite(stored)) return false;
  *factor = Clamp(stored);
  return true;
}

bool FootprintCalibrationCache::Save(const std::string& path, double factor) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int written = std::fprintf(f, "chiller-footprint-cache v1 %.17g\n",
                                   Clamp(factor));
  return std::fclose(f) == 0 && written > 0;
}

std::string FootprintCalibrationCache::PathNextTo(
    const std::string& report_path) {
  constexpr const char* kName = ".chiller_footprint_cache";
  const size_t slash = report_path.find_last_of('/');
  if (slash == std::string::npos) return kName;
  return report_path.substr(0, slash + 1) + kName;
}

uint32_t SweepExecutor::EffectiveJobs(
    const std::vector<ScenarioSpec>& specs) const {
  uint32_t max_shards = 1;
  for (const ScenarioSpec& s : specs) {
    max_shards = std::max(max_shards, std::max<uint32_t>(s.shards, 1));
  }
  return std::max<uint32_t>(1, jobs_ / max_shards);
}

std::vector<StatusOr<ScenarioResult>> SweepExecutor::Run(
    const std::vector<ScenarioSpec>& specs, const ProgressFn& progress) const {
  std::mutex progress_mu;

  // Memory-budget gate: a worker reserves its spec's footprint hint before
  // wiring the scenario and releases it after. The "alone" clause (a
  // worker with nothing else in flight always proceeds) guarantees
  // progress for specs larger than the whole budget.
  //
  // The gate self-calibrates: each completed scenario's observed RSS
  // growth (runner::CurrentRssBytes sampled across wiring + loading)
  // updates an EWMA of actual/hint, and later reservations are scaled by
  // it (clamped to [1/4, 4] — whole-process RSS over-counts under
  // concurrency, so the correction is a trend, not an audit). Only the
  // gate's admission changes; every scenario's results stay a pure
  // function of its spec.
  std::mutex budget_mu;
  std::condition_variable budget_cv;
  uint64_t budget_in_use = 0;
  double calibration = 1.0;
  bool calibrated = false;
  const uint64_t budget = mem_budget_bytes_;
  if (!calibration_cache_.empty() &&
      FootprintCalibrationCache::Load(calibration_cache_, &calibration)) {
    calibrated = true;
    CHILLER_LOG(INFO) << "[sweep] footprint gate calibration x"
                      << Fmt("%.2f", calibration) << " loaded from "
                      << calibration_cache_;
  }
  auto corrected = [&](uint64_t hint) -> uint64_t {
    // Caller holds budget_mu.
    return static_cast<uint64_t>(static_cast<double>(hint) * calibration);
  };
  auto reserve = [&](uint64_t hint) -> uint64_t {
    if (budget == 0 || hint == 0) return 0;
    std::unique_lock<std::mutex> lock(budget_mu);
    uint64_t charge = 0;
    budget_cv.wait(lock, [&] {
      charge = corrected(hint);
      return budget_in_use == 0 || budget_in_use + charge <= budget;
    });
    budget_in_use += charge;
    return charge;
  };
  auto release = [&](uint64_t charge, uint64_t hint, uint64_t observed) {
    if (budget == 0 || hint == 0) return;
    {
      std::lock_guard<std::mutex> lock(budget_mu);
      budget_in_use -= charge;
      if (observed > 0) {
        const double ratio = static_cast<double>(observed) /
                             static_cast<double>(hint);
        constexpr double kAlpha = 0.3;
        calibration = calibrated
                          ? (1.0 - kAlpha) * calibration + kAlpha * ratio
                          : ratio;
        calibration = FootprintCalibrationCache::Clamp(calibration);
        calibrated = true;
      }
    }
    budget_cv.notify_all();
  };

  auto run_one = [&](size_t i) -> StatusOr<ScenarioResult> {
    const uint64_t hint = specs[i].footprint_hint;
    const uint64_t charge = reserve(hint);
    StatusOr<ScenarioResult> result = ScenarioRunner::Run(specs[i]);
    const uint64_t observed = result.ok() ? result->loaded_rss_delta : 0;
    if (budget != 0 && result.ok()) {
      // Estimate-vs-actual log for the self-calibrating gate: the static
      // hint, the correction this reservation was charged at, and the RSS
      // growth observed while this scenario's cluster was loading.
      constexpr double kMb = 1024.0 * 1024.0;
      if (observed == 0) {
        CHILLER_LOG(INFO)
            << "[sweep] scenario " << i << ": footprint hint "
            << Fmt("%.1f", static_cast<double>(hint) / kMb)
            << " MB, charged "
            << Fmt("%.1f", static_cast<double>(charge) / kMb)
            << " MB (RSS probe unavailable or no growth observed)";
      } else {
        CHILLER_LOG(INFO)
            << "[sweep] scenario " << i << ": footprint hint "
            << Fmt("%.1f", static_cast<double>(hint) / kMb)
            << " MB, charged "
            << Fmt("%.1f", static_cast<double>(charge) / kMb)
            << " MB, loaded RSS delta "
            << Fmt("%.1f", static_cast<double>(observed) / kMb)
            << " MB (gate calibration x"
            << Fmt("%.2f", static_cast<double>(observed) /
                               static_cast<double>(hint))
            << ")";
      }
    }
    release(charge, hint, observed);
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
  if (!calibration_cache_.empty() && calibrated) {
    if (!FootprintCalibrationCache::Save(calibration_cache_, calibration)) {
      CHILLER_LOG(WARN) << "[sweep] could not persist footprint calibration "
                           "to "
                        << calibration_cache_;
    }
  }
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
