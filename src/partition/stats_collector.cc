#include "partition/stats_collector.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "common/logging.h"
#include "partition/contention_model.h"

namespace chiller::partition {

namespace {

void CountTrace(const TxnAccessTrace& trace,
                std::unordered_map<RecordId, StatsCollector::RecordCounts>*
                    records) {
  for (const auto& [rid, write] : trace.accesses) {
    StatsCollector::RecordCounts& c = (*records)[rid];
    if (write) {
      c.writes += trace.multiplicity;
    } else {
      c.reads += trace.multiplicity;
    }
  }
}

TxnAccessTrace TraceOf(const txn::Transaction& t) {
  TxnAccessTrace trace;
  trace.txn_class = t.txn_class;
  for (size_t i = 0; i < t.ops.size(); ++i) {
    if (!t.accesses[i].key_resolved || t.accesses[i].alias_of >= 0) continue;
    // Probes that found no record (may_be_missing misses) and ops skipped as
    // part of a dead group never touched a record; sampling them would let a
    // replan mint a lookup entry for a record that does not exist, and a later
    // insert of that key would route to its pre-flip fallback home while
    // readers follow the post-flip entry — stranding it.
    if (t.accesses[i].missing || t.IsSkipped(i)) continue;
    trace.accesses.emplace_back(t.accesses[i].rid, t.ops[i].IsWrite());
  }
  return trace;
}

}  // namespace

void StatsCollector::EnableEngineSharding(uint32_t num_engines) {
  if (!shards_.empty()) {
    CHILLER_CHECK(shards_.size() == num_engines);
    return;
  }
  CHILLER_CHECK(sampled_txns_ == 0 && traces_.empty())
      << "sharding must be enabled before the first observation";
  shards_.resize(num_engines);
  for (uint32_t e = 0; e < num_engines; ++e) {
    shards_[e].rng.Seed(seed_ + 0x9e3779b97f4a7c15ULL * (e + 1));
  }
}

void StatsCollector::Observe(const txn::Transaction& t) {
  if (shards_.empty()) {
    if (sample_rate_ < 1.0 && !rng_.Bernoulli(sample_rate_)) return;
    ObserveTrace(TraceOf(t));
    return;
  }
  Shard& shard = shards_[t.home];
  if (sample_rate_ < 1.0 && !shard.rng.Bernoulli(sample_rate_)) return;
  TxnAccessTrace trace = TraceOf(t);
  shard.sampled += trace.multiplicity;
  CountTrace(trace, &shard.records);
  if (retain_traces_) shard.traces.push_back(std::move(trace));
}

void StatsCollector::ObserveTrace(const TxnAccessTrace& trace) {
  CHILLER_CHECK(shards_.empty())
      << "offline traces and engine-sharded online sampling do not mix";
  if (retain_traces_) traces_.push_back(trace);
  sampled_txns_ += trace.multiplicity;
  CountTrace(trace, &records_);
}

void StatsCollector::MergeShards() const {
  if (shards_.empty()) return;
  uint64_t total = 0;
  for (const Shard& s : shards_) total += s.sampled;
  if (total == merged_upto_) return;
  size_t fresh = 0;
  for (const Shard& s : shards_) fresh += s.traces.size();
  if (fresh > 0) {
    // Shard-major order: each shard's new traces go after its merged ones.
    std::vector<TxnAccessTrace> merged;
    merged.reserve(traces_.size() + fresh);
    auto older = traces_.begin();
    for (Shard& s : shards_) {
      merged.insert(merged.end(), std::make_move_iterator(older),
                    std::make_move_iterator(older + s.merged_traces));
      older += s.merged_traces;
      merged.insert(merged.end(), std::make_move_iterator(s.traces.begin()),
                    std::make_move_iterator(s.traces.end()));
      s.merged_traces += s.traces.size();
      s.traces.clear();
    }
    traces_ = std::move(merged);
  }
  for (Shard& s : shards_) {
    for (const auto& [rid, counts] : s.records) {
      RecordCounts& c = records_[rid];
      c.reads += counts.reads;
      c.writes += counts.writes;
    }
    s.records.clear();
  }
  sampled_txns_ = total;
  merged_upto_ = total;
}

const std::vector<TxnAccessTrace>& StatsCollector::traces() const {
  MergeShards();
  return traces_;
}

const std::unordered_map<RecordId, StatsCollector::RecordCounts>&
StatsCollector::records() const {
  MergeShards();
  return records_;
}

uint64_t StatsCollector::sampled_txns() const {
  MergeShards();
  return sampled_txns_;
}

double StatsCollector::LambdaR(const RecordId& rid,
                               double window_txns) const {
  MergeShards();
  auto it = records_.find(rid);
  if (it == records_.end() || sampled_txns_ == 0) return 0.0;
  return static_cast<double>(it->second.reads) /
         static_cast<double>(sampled_txns_) * window_txns;
}

double StatsCollector::LambdaW(const RecordId& rid,
                               double window_txns) const {
  MergeShards();
  auto it = records_.find(rid);
  if (it == records_.end() || sampled_txns_ == 0) return 0.0;
  return static_cast<double>(it->second.writes) /
         static_cast<double>(sampled_txns_) * window_txns;
}

std::vector<std::pair<RecordId, double>>
StatsCollector::ContentionLikelihoods(double window_txns) const {
  MergeShards();
  std::vector<std::pair<RecordId, double>> out;
  out.reserve(records_.size());
  for (const auto& [rid, counts] : records_) {
    (void)counts;
    out.emplace_back(rid,
                     ContentionModel::ConflictLikelihood(
                         LambdaW(rid, window_txns), LambdaR(rid, window_txns)));
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;  // deterministic tie-break
  });
  return out;
}

}  // namespace chiller::partition
