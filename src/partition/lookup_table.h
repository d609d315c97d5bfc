// Record-to-partition mapping interfaces and the two-level lookup table.
#ifndef CHILLER_PARTITION_LOOKUP_TABLE_H_
#define CHILLER_PARTITION_LOOKUP_TABLE_H_

#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/logging.h"
#include "common/types.h"
#include "migrate/relayout.h"

namespace chiller::partition {

/// Where does a record live, and is it hot? Every execution protocol
/// consults this interface; concrete implementations come from the
/// partitioning pipeline (hash, Schism, Chiller).
class RecordPartitioner {
 public:
  virtual ~RecordPartitioner() = default;

  virtual PartitionId PartitionOf(const RecordId& rid) const = 0;

  /// True iff the record is in the hot lookup table (drives the two-region
  /// run-time decision, Section 3.3 step 1).
  virtual bool IsHot(const RecordId& rid) const {
    (void)rid;
    return false;
  }

  /// Number of explicit lookup-table entries this scheme must store
  /// (the metric of Section 7.2.2's lookup-table comparison).
  virtual size_t LookupEntries() const { return 0; }
};

/// Default partitioner: hash on the primary key (zero lookup state).
/// An optional per-table override supports "partition by warehouse" style
/// layouts where the key encodes the partition (see tpcc_schema.h).
class HashPartitioner : public RecordPartitioner {
 public:
  using KeyToPartition = PartitionId (*)(const RecordId&, uint32_t);

  explicit HashPartitioner(uint32_t num_partitions,
                           KeyToPartition fn = nullptr)
      : num_partitions_(num_partitions), fn_(fn) {}

  PartitionId PartitionOf(const RecordId& rid) const override {
    if (fn_ != nullptr) return fn_(rid, num_partitions_);
    return static_cast<PartitionId>(RecordIdHash{}(rid) % num_partitions_);
  }

  /// Same partition count and key function: the two place every record
  /// identically.
  bool SameAs(const HashPartitioner& other) const {
    return num_partitions_ == other.num_partitions_ && fn_ == other.fn_;
  }

 private:
  uint32_t num_partitions_;
  KeyToPartition fn_;
};

/// Explicit record placement on top of a fallback partitioner.
///
/// Two modes, matching the paper:
///  - full table (Schism-style): every record that appeared in the workload
///    trace has an entry — LookupEntries() is large;
///  - hot-only (Chiller, Section 4.4): only records whose contention
///    likelihood clears the threshold get entries; cold records fall back
///    to the default partitioner.
class LookupPartitioner : public RecordPartitioner {
 public:
  explicit LookupPartitioner(std::unique_ptr<RecordPartitioner> fallback)
      : fallback_(std::move(fallback)) {}

  void Assign(const RecordId& rid, PartitionId p) { entries_[rid] = p; }
  void MarkHot(const RecordId& rid) { hot_.insert(rid); }

  PartitionId PartitionOf(const RecordId& rid) const override {
    auto it = entries_.find(rid);
    if (it != entries_.end()) return it->second;
    return fallback_->PartitionOf(rid);
  }

  bool IsHot(const RecordId& rid) const override {
    return hot_.contains(rid);
  }

  size_t LookupEntries() const override { return entries_.size(); }
  size_t HotEntries() const { return hot_.size(); }

  /// The records this layout names explicitly; every other record goes to
  /// fallback(). A placement diff between two layouts that share a fallback
  /// only has to look at the names (migrate::MigrationPlan::Diff).
  const std::unordered_map<RecordId, PartitionId>& entries() const {
    return entries_;
  }
  const RecordPartitioner& fallback() const { return *fallback_; }

 private:
  std::unique_ptr<RecordPartitioner> fallback_;
  std::unordered_map<RecordId, PartitionId> entries_;
  std::unordered_set<RecordId> hot_;
};

/// Mutable indirection for online repartitioning (paper Section 4.1's
/// observe -> replan -> migrate loop): protocols hold a stable
/// RecordPartitioner* for the lifetime of a run, while every relayout —
/// quiesced or live — changes the delegate bucket by bucket through
/// BeginTransition() / FlipBucket() / FinishTransition() (src/migrate).
/// The incoming layout is staged next to the active one and records keep
/// routing through the active layout until their relayout bucket
/// (migrate::RelayoutBucketOf, the same bucket space the BucketLockTable
/// guards) is flipped; the LiveMigrator flips each bucket in the same
/// simulator event that completes its record moves, so routing and
/// physical placement never disagree.
class SwappablePartitioner : public RecordPartitioner {
 public:
  explicit SwappablePartitioner(std::unique_ptr<RecordPartitioner> initial)
      : active_(std::move(initial)) {}

  const RecordPartitioner* active() const { return active_.get(); }

  /// Stages `next` as the incoming layout of an incremental relayout over
  /// `num_buckets` relayout buckets; no routing changes yet.
  void BeginTransition(std::unique_ptr<RecordPartitioner> next,
                       uint32_t num_buckets) {
    CHILLER_CHECK(!in_transition()) << "transition already in flight";
    CHILLER_CHECK(next != nullptr && num_buckets > 0);
    next_ = std::move(next);
    num_buckets_ = num_buckets;
    flipped_.assign(num_buckets, false);
  }

  /// Routes bucket `b` through the incoming layout from now on (its
  /// records' new physical placement just became live).
  void FlipBucket(migrate::BucketId b) {
    CHILLER_CHECK(in_transition()) << "FlipBucket outside a transition";
    CHILLER_CHECK(b < num_buckets_ && !flipped_[b]);
    flipped_[b] = true;
  }

  /// Collapses the indirection: the incoming layout becomes active for
  /// every bucket (buckets that never flipped had no placement diffs) and
  /// the retired layout is returned.
  std::unique_ptr<RecordPartitioner> FinishTransition() {
    CHILLER_CHECK(in_transition()) << "no transition to finish";
    active_.swap(next_);
    flipped_.clear();
    num_buckets_ = 0;
    return std::move(next_);
  }

  bool in_transition() const { return next_ != nullptr; }

  PartitionId PartitionOf(const RecordId& rid) const override {
    return Route(rid)->PartitionOf(rid);
  }
  bool IsHot(const RecordId& rid) const override {
    return Route(rid)->IsHot(rid);
  }
  /// During a transition both layouts are resident, so the lookup state
  /// this scheme must store is the sum of the two tables.
  size_t LookupEntries() const override {
    return active_->LookupEntries() +
           (in_transition() ? next_->LookupEntries() : 0);
  }

 private:
  const RecordPartitioner* Route(const RecordId& rid) const {
    if (next_ != nullptr &&
        flipped_[migrate::RelayoutBucketOf(rid, num_buckets_)]) {
      return next_.get();
    }
    return active_.get();
  }

  std::unique_ptr<RecordPartitioner> active_;
  std::unique_ptr<RecordPartitioner> next_;
  std::vector<bool> flipped_;
  uint32_t num_buckets_ = 0;
};

}  // namespace chiller::partition

#endif  // CHILLER_PARTITION_LOOKUP_TABLE_H_
