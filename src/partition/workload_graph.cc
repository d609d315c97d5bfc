#include "partition/workload_graph.h"

#include <algorithm>
#include <map>

#include "common/logging.h"
#include "partition/contention_model.h"

namespace chiller::partition {

size_t Graph::num_edges() const {
  size_t twice = 0;
  for (const auto& nbrs : adj) twice += nbrs.size();
  return twice / 2;
}

double Graph::TotalVertexWeight() const {
  double total = 0;
  for (double w : vwgt) total += w;
  return total;
}

namespace {

/// Interns records into dense vertex ids.
class RecordInterner {
 public:
  uint32_t Intern(const RecordId& rid) {
    auto [it, inserted] = ids_.try_emplace(rid, records_.size());
    if (inserted) records_.push_back(rid);
    return it->second;
  }
  size_t size() const { return records_.size(); }
  std::vector<RecordId> Take() { return std::move(records_); }

 private:
  std::unordered_map<RecordId, uint32_t> ids_;
  std::vector<RecordId> records_;
};

/// Canonical form of an access set for transaction dedup: sorted unique
/// (record, write) pairs, writes folded in. Records are interned in trace
/// order.
std::vector<std::pair<uint32_t, bool>> CanonicalAccesses(
    const TxnAccessTrace& trace, RecordInterner* interner) {
  std::vector<std::pair<uint32_t, bool>> canon;
  canon.reserve(trace.accesses.size());
  for (const auto& [rid, write] : trace.accesses) {
    canon.emplace_back(interner->Intern(rid), write);
  }
  std::sort(canon.begin(), canon.end());
  size_t n = 0;
  for (const auto& [v, write] : canon) {
    if (n > 0 && canon[n - 1].first == v) {
      canon[n - 1].second = canon[n - 1].second || write;
    } else {
      canon[n++] = {v, write};
    }
  }
  canon.resize(n);
  return canon;
}

}  // namespace

StarGraph WorkloadGraphBuilder::BuildStar(
    const std::vector<TxnAccessTrace>& traces, const StatsCollector& stats,
    const StarOptions& options) {
  StarGraph out;
  RecordInterner interner;

  // Deduplicate transactions with identical access sets; their multiplicity
  // feeds the txn-count load metric.
  std::vector<std::pair<std::vector<std::pair<uint32_t, bool>>, uint64_t>>
      txn_groups;
  for (const TxnAccessTrace& trace : traces) {
    auto canon = CanonicalAccesses(trace, &interner);
    if (canon.empty()) continue;
    txn_groups.emplace_back(std::move(canon), trace.multiplicity);
  }
  if (options.dedupe_identical_txns) {
    // Ascending access-set order, equal sets summed into one group.
    std::sort(txn_groups.begin(), txn_groups.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    size_t n = 0;
    for (auto& [accesses, multiplicity] : txn_groups) {
      if (n > 0 && txn_groups[n - 1].first == accesses) {
        txn_groups[n - 1].second += multiplicity;
      } else {
        txn_groups[n++] = {std::move(accesses), multiplicity};
      }
    }
    txn_groups.resize(n);
  }

  const size_t num_records = interner.size();
  out.records = interner.Take();
  out.num_t_vertices = txn_groups.size();
  Graph& g = out.graph;
  g.adj.resize(num_records + txn_groups.size());
  g.vwgt.assign(num_records + txn_groups.size(), 0.0);

  // Per-record contention likelihood = edge weight of all its star edges.
  out.contention.resize(num_records);
  for (size_t v = 0; v < num_records; ++v) {
    out.contention[v] = ContentionModel::ConflictLikelihood(
        stats.LambdaW(out.records[v], options.lock_window_txns),
        stats.LambdaR(out.records[v], options.lock_window_txns));
  }

  // Vertex weights per load metric (Section 4.3).
  if (options.metric == LoadMetric::kRecordCount) {
    for (size_t v = 0; v < num_records; ++v) g.vwgt[v] = 1.0;
  } else if (options.metric == LoadMetric::kAccessCount) {
    for (size_t v = 0; v < num_records; ++v) {
      auto it = stats.records().find(out.records[v]);
      g.vwgt[v] = it == stats.records().end()
                      ? 0.0
                      : static_cast<double>(it->second.reads +
                                            it->second.writes);
    }
  }

  uint32_t t_vertex = static_cast<uint32_t>(num_records);
  for (const auto& [accesses, multiplicity] : txn_groups) {
    if (options.metric == LoadMetric::kTxnCount) {
      g.vwgt[t_vertex] = static_cast<double>(multiplicity);
    }
    for (const auto& [r_vertex, write] : accesses) {
      (void)write;
      const double w = out.contention[r_vertex] + options.min_edge_weight;
      g.adj[t_vertex].emplace_back(r_vertex, w);
      g.adj[r_vertex].emplace_back(t_vertex, w);
    }
    ++t_vertex;
  }
  return out;
}

CoAccessGraph WorkloadGraphBuilder::BuildCoAccess(
    const std::vector<TxnAccessTrace>& traces) {
  CoAccessGraph out;
  RecordInterner interner;
  // Accumulate clique edges; key is (min, max) vertex pair.
  std::map<std::pair<uint32_t, uint32_t>, double> edges;
  for (const TxnAccessTrace& trace : traces) {
    auto canon = CanonicalAccesses(trace, &interner);
    for (size_t a = 0; a < canon.size(); ++a) {
      for (size_t b = a + 1; b < canon.size(); ++b) {
        auto key = std::minmax(canon[a].first, canon[b].first);
        edges[{key.first, key.second}] +=
            static_cast<double>(trace.multiplicity);
      }
    }
  }
  const size_t n = interner.size();
  out.records = interner.Take();
  out.graph.adj.resize(n);
  out.graph.vwgt.assign(n, 1.0);  // Schism balances record counts
  for (const auto& [pair, w] : edges) {
    out.graph.adj[pair.first].emplace_back(pair.second, w);
    out.graph.adj[pair.second].emplace_back(pair.first, w);
  }
  return out;
}

}  // namespace chiller::partition
