#include "partition/metrics.h"

#include <algorithm>
#include <set>
#include <unordered_map>
#include <utility>

#include "partition/contention_model.h"

namespace chiller::partition {

double DistributedRatio(const std::vector<TxnAccessTrace>& traces,
                        const RecordPartitioner& partitioner) {
  uint64_t total = 0, distributed = 0;
  for (const TxnAccessTrace& t : traces) {
    if (t.accesses.empty()) continue;
    std::set<PartitionId> parts;
    for (const auto& [rid, write] : t.accesses) {
      (void)write;
      parts.insert(partitioner.PartitionOf(rid));
    }
    total += t.multiplicity;
    if (parts.size() > 1) distributed += t.multiplicity;
  }
  return total == 0 ? 0.0
                    : static_cast<double>(distributed) /
                          static_cast<double>(total);
}

std::vector<double> ResidualContention(
    const std::vector<TxnAccessTrace>& traces,
    const std::vector<const RecordPartitioner*>& layouts,
    const StatsCollector& stats, double lock_window_txns) {
  const size_t num_layouts = layouts.size();
  std::vector<double> totals(num_layouts, 0.0);

  // One row per distinct record: its id, likelihood, partition under each
  // layout (row-major), and the last trace (1-based) that listed it.
  std::unordered_map<RecordId, uint32_t> row_of;
  std::vector<RecordId> rids;
  std::vector<double> likelihood;
  std::vector<PartitionId> part;
  std::vector<size_t> seen_in;

  std::vector<uint32_t> rows;  // this trace's records, first occurrence
  std::vector<std::pair<PartitionId, double>> mass;
  std::vector<PartitionId> host(num_layouts);
  for (size_t ti = 0; ti < traces.size(); ++ti) {
    const TxnAccessTrace& t = traces[ti];
    rows.clear();
    for (const auto& [rid, write] : t.accesses) {
      (void)write;
      const auto [it, inserted] =
          row_of.try_emplace(rid, static_cast<uint32_t>(rids.size()));
      if (inserted) {
        rids.push_back(rid);
        likelihood.push_back(ContentionModel::ConflictLikelihood(
            stats.LambdaW(rid, lock_window_txns),
            stats.LambdaR(rid, lock_window_txns)));
        for (const RecordPartitioner* layout : layouts) {
          part.push_back(layout->PartitionOf(rid));
        }
        seen_in.push_back(0);
      }
      const uint32_t row = it->second;
      if (seen_in[row] == ti + 1) continue;
      seen_in[row] = ti + 1;
      rows.push_back(row);
    }

    // Best single inner host = partition with the most contention mass;
    // among equal masses, the lowest partition.
    for (size_t l = 0; l < num_layouts; ++l) {
      mass.clear();
      for (uint32_t row : rows) {
        const PartitionId p = part[row * num_layouts + l];
        auto m = std::find_if(mass.begin(), mass.end(),
                              [p](const auto& e) { return e.first == p; });
        if (m == mass.end()) {
          mass.emplace_back(p, 0.0);
          m = mass.end() - 1;
        }
        m->second += likelihood[row];
      }
      PartitionId best_p = kInvalidPartition;
      double best = -1.0;
      for (const auto& [p, m] : mass) {
        if (m > best || (m == best && p < best_p)) {
          best = m;
          best_p = p;
        }
      }
      host[l] = best_p;
    }

    std::sort(rows.begin(), rows.end(),
              [&](uint32_t a, uint32_t b) { return rids[a] < rids[b]; });
    const double multiplicity = static_cast<double>(t.multiplicity);
    for (size_t l = 0; l < num_layouts; ++l) {
      for (uint32_t row : rows) {
        if (part[row * num_layouts + l] != host[l]) {
          totals[l] += likelihood[row] * multiplicity;
        }
      }
    }
  }
  return totals;
}

}  // namespace chiller::partition
