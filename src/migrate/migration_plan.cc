#include "migrate/migration_plan.h"

#include <algorithm>
#include <tuple>
#include <unordered_map>

namespace chiller::migrate {

namespace {

/// A layout split into the records it names and the hash fallback that
/// places the rest.
struct NamedLayout {
  const std::unordered_map<RecordId, PartitionId>* entries = nullptr;
  const partition::HashPartitioner* fallback = nullptr;
};

NamedLayout Decompose(const partition::RecordPartitioner& layout) {
  if (const auto* hash =
          dynamic_cast<const partition::HashPartitioner*>(&layout)) {
    return {.entries = nullptr, .fallback = hash};
  }
  const auto* lookup =
      dynamic_cast<const partition::LookupPartitioner*>(&layout);
  CHILLER_CHECK(lookup != nullptr)
      << "Diff needs a hash layout or a lookup table over one";
  const auto* hash =
      dynamic_cast<const partition::HashPartitioner*>(&lookup->fallback());
  CHILLER_CHECK(hash != nullptr)
      << "Diff needs a lookup table whose fallback is a hash layout";
  return {.entries = &lookup->entries(), .fallback = hash};
}

/// A move with the key that orders it: relayout bucket, then the full
/// scan's (partition, table, storage bucket, slot).
struct KeyedMove {
  BucketId bucket;
  storage::PartitionStore::ScanPosition pos;
  RecordMove move;
};

}  // namespace

MigrationPlan MigrationPlan::Diff(cc::Cluster* cluster,
                                  const partition::SwappablePartitioner& live,
                                  const partition::RecordPartitioner& target,
                                  uint32_t num_buckets) {
  CHILLER_CHECK(num_buckets > 0);
  CHILLER_CHECK(!live.in_transition())
      << "Diff against a live layout that is mid-relayout";
  const partition::RecordPartitioner& current = *live.active();
  const NamedLayout from_layout = Decompose(current);
  const NamedLayout to_layout = Decompose(target);
  CHILLER_CHECK(from_layout.fallback->SameAs(*to_layout.fallback))
      << "Diff needs both layouts to share their hash fallback";

  std::vector<KeyedMove> keyed;
  auto consider = [&](const RecordId& rid) {
    const PartitionId from = current.PartitionOf(rid);
    const PartitionId to = target.PartitionOf(rid);
    if (to == from) return;
    const auto pos = cluster->primary(from)->PositionOf(rid);
    if (!pos) return;
    if (cluster->primary(to)->Find(rid) != nullptr) return;
    keyed.push_back(KeyedMove{
        .bucket = RelayoutBucketOf(rid, num_buckets),
        .pos = *pos,
        .move = RecordMove{.rid = rid, .from = from, .to = to}});
  };
  for (const NamedLayout& layout : {from_layout, to_layout}) {
    if (layout.entries == nullptr) continue;
    for (const auto& [rid, p] : *layout.entries) {
      (void)p;
      consider(rid);
    }
  }

  // A record both layouts name was considered twice; its two copies are
  // equal and sort next to each other.
  std::sort(keyed.begin(), keyed.end(),
            [](const KeyedMove& a, const KeyedMove& b) {
              return std::tie(a.bucket, a.move.from, a.pos) <
                     std::tie(b.bucket, b.move.from, b.pos);
            });
  keyed.erase(std::unique(keyed.begin(), keyed.end(),
                          [](const KeyedMove& a, const KeyedMove& b) {
                            return a.move == b.move;
                          }),
              keyed.end());

  MigrationPlan plan;
  plan.num_buckets = num_buckets;
  for (const KeyedMove& k : keyed) {
    if (plan.units.empty() || plan.units.back().bucket != k.bucket) {
      plan.units.push_back(MoveUnit{.bucket = k.bucket, .moves = {}});
    }
    plan.units.back().moves.push_back(k.move);
  }
  return plan;
}

}  // namespace chiller::migrate
