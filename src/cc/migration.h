// Record-migration accounting shared by every relayout: the wire framing a
// moved batch pays and the cost summary a relayout reports. The mover is
// migrate::LiveMigrator; the runner's quiesced migrate phase runs it over a
// stopped driver.
#ifndef CHILLER_CC_MIGRATION_H_
#define CHILLER_CC_MIGRATION_H_

#include <cstddef>

#include "common/types.h"

namespace chiller::cc {

/// Wire accounting per moved batch/record, mirroring ReplicationManager's
/// update-stream framing: header + rid + image.
inline constexpr size_t kMigrationBatchHeaderBytes = 64;
inline constexpr size_t kMigrationPerRecordOverheadBytes = 24;

/// What a relayout cost: the records that physically moved, the bytes that
/// crossed the fabric for them, and the simulated time the cluster spent
/// migrating (for a quiesced relayout, the "pause" the measure phase pays;
/// for a live one, the span records were in flight under traffic).
struct MigrationStats {
  uint64_t moved_records = 0;
  uint64_t moved_bytes = 0;
  SimTime sim_time = 0;

  friend bool operator==(const MigrationStats&, const MigrationStats&) =
      default;
};

}  // namespace chiller::cc

#endif  // CHILLER_CC_MIGRATION_H_
