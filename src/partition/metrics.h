// Layout-quality metrics: distributed-transaction ratio and the residual
// contention objective of Section 4.3.
#ifndef CHILLER_PARTITION_METRICS_H_
#define CHILLER_PARTITION_METRICS_H_

#include <vector>

#include "partition/lookup_table.h"
#include "partition/stats_collector.h"

namespace chiller::partition {

/// Fraction of transactions whose access set spans more than one partition
/// under `partitioner` (the Figure 8 metric).
double DistributedRatio(const std::vector<TxnAccessTrace>& traces,
                        const RecordPartitioner& partitioner);

/// The residual contention objective: for each transaction, the best single
/// inner host is the partition carrying the most contention mass; every
/// record outside it contributes its conflict likelihood (it would be
/// locked across the outer region's span). Lower is better. This evaluates
/// a layout against the paper's min-sum-of-cut-weights objective without
/// running the system.
///
/// Scores every layout in `layouts` in one pass and returns one total per
/// layout, in the same order: each distinct record's conflict likelihood is
/// priced once, and its partition looked up once per layout. Each total is
/// bit-identical to scoring its layout alone. Per trace, records count
/// once (first occurrence), partition masses accumulate in that order, the
/// host is the first strictly largest mass in ascending partition order,
/// and the residual is summed in ascending RecordId order.
std::vector<double> ResidualContention(
    const std::vector<TxnAccessTrace>& traces,
    const std::vector<const RecordPartitioner*>& layouts,
    const StatsCollector& stats, double lock_window_txns);

}  // namespace chiller::partition

#endif  // CHILLER_PARTITION_METRICS_H_
