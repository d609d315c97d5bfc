#include "migrate/migration_plan.h"

#include <map>
#include <utility>

namespace chiller::migrate {

MigrationPlan MigrationPlan::Diff(cc::Cluster* cluster,
                                  const partition::RecordPartitioner& target,
                                  uint32_t num_buckets) {
  CHILLER_CHECK(num_buckets > 0);
  MigrationPlan plan;
  plan.num_buckets = num_buckets;

  // Deterministic partition/bucket scan order, grouped by relayout bucket.
  // std::map keeps the units in ascending bucket order without a sort
  // pass.
  std::map<BucketId, std::vector<RecordMove>> by_bucket;
  const uint32_t partitions = cluster->topology().num_partitions();
  for (PartitionId p = 0; p < partitions; ++p) {
    cluster->primary(p)->ForEach(
        [&](const RecordId& rid, const storage::Record&) {
          const PartitionId to = target.PartitionOf(rid);
          if (to == p) return;
          if (cluster->primary(to)->Find(rid) != nullptr) return;
          by_bucket[RelayoutBucketOf(rid, num_buckets)].push_back(
              RecordMove{.rid = rid, .from = p, .to = to});
        });
  }

  plan.units.reserve(by_bucket.size());
  for (auto& [bucket, moves] : by_bucket) {
    plan.units.push_back(MoveUnit{.bucket = bucket, .moves = std::move(moves)});
  }
  return plan;
}

}  // namespace chiller::migrate
