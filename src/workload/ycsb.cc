#include "workload/ycsb.h"

#include <algorithm>
#include <set>
#include <utility>

#include "common/logging.h"

namespace chiller::workload::ycsb {

namespace {
using storage::LockMode;
using storage::Record;
using txn::Operation;
using txn::OpType;
using txn::Transaction;
using txn::TxnContext;

constexpr size_t kFieldsPerRecord = 8;
constexpr size_t kWireBytes = 100;  // the YCSB-standard 10x10B payload
}  // namespace

std::vector<storage::TableSpec> Schema() {
  return {
      {.name = "usertable", .id = kMain, .num_fields = kFieldsPerRecord,
       .wire_bytes = kWireBytes, .buckets_per_partition = 1u << 16},
  };
}

std::unique_ptr<Transaction> BuildYcsbTxn(std::vector<int64_t> params) {
  auto t = std::make_unique<Transaction>();
  t->txn_class = 0;
  t->ctx.params = std::move(params);
  const auto& p = t->ctx.params;
  const int64_t num_ops = p[0];

  // The engine forbids lock upgrades within a transaction (Figure 4's
  // read_with_wl): once any op writes, every read of the transaction takes
  // the write lock up front — two keys may share a bucket, and a shared
  // bucket holder would block a later exclusive piggyback. Read-only
  // transactions keep shared locks and stay fully concurrent.
  bool has_write = false;
  for (int64_t i = 0; i < num_ops; ++i) has_write |= p[2 + 2 * i] != 0;

  std::vector<Operation> ops;
  ops.reserve(static_cast<size_t>(num_ops));
  for (int64_t i = 0; i < num_ops; ++i) {
    const Key key = static_cast<Key>(p[1 + 2 * i]);
    const bool is_write = p[2 + 2 * i] != 0;
    Operation op;
    op.table = kMain;
    op.key_fn = [key](const TxnContext&) { return key; };
    op.mode = has_write ? LockMode::kExclusive : LockMode::kShared;
    if (is_write) {
      op.type = OpType::kUpdate;
      op.on_apply = [](TxnContext&, Record* r) {
        r->Add(0, 1);  // bump the counter field; fields 1..7 are payload
      };
    } else {
      op.type = OpType::kRead;
    }
    ops.push_back(std::move(op));
  }
  t->SetOps(std::move(ops));
  return t;
}

YcsbWorkload::YcsbWorkload(Options options)
    : options_(options),
      zipf_(options.keys_per_partition, options.theta) {
  CHILLER_CHECK(options_.num_partitions >= 1);
  CHILLER_CHECK(options_.keys_per_partition >= options_.ops_per_txn)
      << "a transaction must be able to draw distinct keys";
  CHILLER_CHECK(options_.ops_per_txn >= 1);
  CHILLER_CHECK(options_.hot_keys_per_partition <=
                options_.keys_per_partition);
  CHILLER_CHECK(options_.shift_stride < options_.keys_per_partition)
      << "the rotation is modular; a full-circle stride is a no-op";
  CHILLER_CHECK((options_.shift_every > 0) == (options_.shift_stride > 0))
      << "shift_every and shift_stride enable the shifting hot set together";
}

void YcsbWorkload::ForEachRecord(
    const std::function<void(const RecordId&, const storage::Record&)>& load)
    const {
  for (uint32_t p = 0; p < options_.num_partitions; ++p) {
    for (uint64_t k = 0; k < options_.keys_per_partition; ++k) {
      Record r(kFieldsPerRecord, kWireBytes);
      r.Set(0, options_.initial_value);
      load(RecordId{kMain, p * options_.keys_per_partition + k}, r);
    }
  }
}

std::vector<Key> YcsbWorkload::SampleKeys(PartitionId home, Rng* rng) {
  const bool distributed = rng->Bernoulli(options_.distributed_ratio);
  // Popularity rotation for the shifting hot set: the Zipf draw yields a
  // *rank*; the rank-to-key mapping slides by shift_stride per elapsed
  // window. Pure arithmetic on the (shard-invariant) clock, so the drawn
  // key stream is the same for any shard count.
  uint64_t rotation = 0;
  if (options_.shift_every > 0 && clock_) {
    rotation = (static_cast<uint64_t>(clock_()) /
                static_cast<uint64_t>(options_.shift_every)) *
               options_.shift_stride;
  }
  std::set<Key> keys;
  int guard = 0;
  while (keys.size() < options_.ops_per_txn && guard++ < 10000) {
    const uint64_t part =
        distributed ? rng->Uniform(options_.num_partitions) : home;
    const uint64_t rank =
        (zipf_.Next(rng) + rotation) % options_.keys_per_partition;
    keys.insert(part * options_.keys_per_partition + rank);
  }
  return {keys.begin(), keys.end()};
}

std::vector<partition::TxnAccessTrace> YcsbWorkload::GenerateTrace(size_t n,
                                                                  Rng* rng) {
  std::vector<partition::TxnAccessTrace> traces;
  traces.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const PartitionId home =
        static_cast<PartitionId>(rng->Uniform(options_.num_partitions));
    partition::TxnAccessTrace trace;
    for (Key key : SampleKeys(home, rng)) {
      trace.accesses.emplace_back(RecordId{kMain, key},
                                  !rng->Bernoulli(options_.read_ratio));
    }
    traces.push_back(std::move(trace));
  }
  return traces;
}

std::unique_ptr<Transaction> YcsbWorkload::Next(PartitionId home, Rng* rng) {
  const auto keys = SampleKeys(home, rng);
  std::vector<int64_t> params = {static_cast<int64_t>(keys.size())};
  params.reserve(1 + 2 * keys.size());
  for (Key key : keys) {
    params.push_back(static_cast<int64_t>(key));
    params.push_back(rng->Bernoulli(options_.read_ratio) ? 0 : 1);
  }
  return BuildYcsbTxn(std::move(params));
}

}  // namespace chiller::workload::ycsb
