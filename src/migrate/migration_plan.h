// MigrationPlan: the diff between the cluster's current physical record
// placement and a target layout, grouped into per-relayout-bucket move
// units — the schedule migrate::LiveMigrator executes, streaming up to
// `streams` buckets of it concurrently. The runner's quiesced migrate phase
// diffs one bucket (the whole relayout as one unit) and runs it with the
// driver stopped; live relayouts diff many and run under traffic.
#ifndef CHILLER_MIGRATE_MIGRATION_PLAN_H_
#define CHILLER_MIGRATE_MIGRATION_PLAN_H_

#include <vector>

#include "cc/cluster.h"
#include "migrate/relayout.h"
#include "partition/lookup_table.h"

namespace chiller::migrate {

/// One record that must change primaries.
struct RecordMove {
  RecordId rid;
  PartitionId from = kInvalidPartition;
  PartitionId to = kInvalidPartition;

  friend bool operator==(const RecordMove&, const RecordMove&) = default;
};

/// All moves of one relayout bucket — the unit the live migrator locks,
/// ships, and flips atomically with respect to transaction traffic.
struct MoveUnit {
  BucketId bucket = 0;
  std::vector<RecordMove> moves;
};

struct MigrationPlan {
  /// The relayout bucket space this plan was diffed over. Must match the
  /// BucketLockTable epoch and the SwappablePartitioner transition.
  uint32_t num_buckets = 1;

  /// Units in ascending bucket order; buckets with no placement diffs are
  /// omitted (they flip implicitly when the transition finishes). Within a
  /// unit, moves follow the deterministic partition/table/bucket scan
  /// order of the diff.
  std::vector<MoveUnit> units;

  size_t total_moves() const {
    size_t n = 0;
    for (const MoveUnit& u : units) n += u.moves.size();
    return n;
  }

  /// Diffs the records' current placement, which is `live`'s active layout,
  /// against `target`. Only records that some layout names can move: the
  /// candidates are the lookup entries of live's active layout and of
  /// `target` (partition::LookupPartitioner::entries()), and every other
  /// record goes to the same hash fallback under both. A candidate that is
  /// absent at its live home (an erased row) or that already sits at its
  /// target primary (a record loaded everywhere, i.e. a fully replicated
  /// read-only table) never moves. Moves follow the order of a full scan of
  /// the primaries (partition, table, storage bucket, slot), grouped by
  /// ascending relayout bucket. With num_buckets == 1 the plan degenerates
  /// to a single unit holding the whole diff in scan order — the quiesced
  /// migrate phase's schedule.
  ///
  /// Precondition (CHECKed): `live` is not in transition, and both layouts
  /// are a partition::HashPartitioner or a LookupPartitioner over one, with
  /// equal hash fallbacks (same partition count and key function). Live
  /// migration relies on the same invariant: a record born mid-relayout
  /// places identically under the outgoing and the incoming layout.
  static MigrationPlan Diff(cc::Cluster* cluster,
                            const partition::SwappablePartitioner& live,
                            const partition::RecordPartitioner& target,
                            uint32_t num_buckets);
};

}  // namespace chiller::migrate

#endif  // CHILLER_MIGRATE_MIGRATION_PLAN_H_
