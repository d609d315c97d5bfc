#include "schedule/scheduler.h"

#include <algorithm>
#include <memory>

#include "common/logging.h"

namespace chiller::schedule {

namespace {

/// The first hot *written* record of `t` in op order. Writes only, on
/// purpose: under NO_WAIT locking the abort storms worth serializing are
/// exclusive-lock collisions on a hot record, while hot *reads* share
/// their lock freely — classifying readers would serialize work that
/// cannot conflict and turn the class queue itself into the bottleneck.
/// Unresolved keys (pk-dependent ops ahead of execution) are skipped —
/// classification only sees what is knowable at admission. Returns false
/// when no resolved write is hot.
bool FirstHotRecord(const txn::Transaction& t,
                    const partition::RecordPartitioner& part,
                    RecordId* out) {
  for (size_t i = 0; i < t.ops.size(); ++i) {
    if (!t.ops[i].IsWrite()) continue;
    const txn::Access& a = t.accesses[i];
    if (!a.key_resolved) continue;
    if (part.IsHot(a.rid)) {
      *out = a.rid;
      return true;
    }
  }
  return false;
}

/// Stable class of a hot record: the shared RecordId hash folded into the
/// class universe. Pure function of (record, classes) — identical across
/// retries, engines, shard counts, and processes.
uint32_t ClassOfRecord(const RecordId& rid, uint32_t classes) {
  return static_cast<uint32_t>(RecordIdHash{}(rid) % classes);
}

// ---------------------------------------------------------------------------
// fifo — arrival order, no steering
// ---------------------------------------------------------------------------

class FifoScheduler final : public Scheduler {
 public:
  const char* name() const override { return "fifo"; }
  bool Classifies() const override { return false; }
  uint32_t Classify(const txn::Transaction&) const override {
    return kColdClass;
  }
  EngineId Route(const txn::Transaction&, uint32_t,
                 EngineId arrival) const override {
    return arrival;
  }
};

// ---------------------------------------------------------------------------
// hash-affinity — heat classification, owner steering
// ---------------------------------------------------------------------------

/// Class = hash of the transaction's first hot written record, cold when it
/// writes none. A hot transaction goes to the engine that owns its hot
/// record (partitions map 1:1 onto engines), which makes the contended
/// access local *and* gives that engine a complete view of the record's
/// conflict class for serialized admission. Cold transactions stay on their
/// arrival engine — steering them would only add a forwarding hop.
class HashAffinityScheduler final : public Scheduler {
 public:
  explicit HashAffinityScheduler(const SchedulerContext& ctx)
      : num_engines_(ctx.num_engines),
        // Enough classes that the per-partition hot sets (typically a few
        // records each) rarely collide, while the class map stays tiny.
        classes_(std::max<uint32_t>(256, 64 * ctx.num_engines)),
        partitioner_(ctx.partitioner) {
    CHILLER_CHECK(partitioner_ != nullptr);
    CHILLER_CHECK(num_engines_ >= 1);
  }

  const char* name() const override { return "hash-affinity"; }

  uint32_t Classify(const txn::Transaction& t) const override {
    RecordId hot;
    if (!FirstHotRecord(t, *partitioner_, &hot)) return kColdClass;
    return ClassOfRecord(hot, classes_);
  }

  EngineId Route(const txn::Transaction& t, uint32_t cls,
                 EngineId arrival) const override {
    if (cls == kColdClass) return arrival;
    RecordId hot;
    if (!FirstHotRecord(t, *partitioner_, &hot)) return arrival;
    return static_cast<EngineId>(partitioner_->PartitionOf(hot) %
                                 num_engines_);
  }

 private:
  uint32_t num_engines_;
  uint32_t classes_;
  const partition::RecordPartitioner* partitioner_;
};

StatusOr<std::unique_ptr<Scheduler>> MakeFifo(const SchedulerContext&) {
  return std::unique_ptr<Scheduler>(std::make_unique<FifoScheduler>());
}

StatusOr<std::unique_ptr<Scheduler>> MakeHashAffinity(
    const SchedulerContext& ctx) {
  if (ctx.partitioner == nullptr) {
    return Status::InvalidArgument(
        "hash-affinity needs a partitioner (the heat source)");
  }
  return std::unique_ptr<Scheduler>(
      std::make_unique<HashAffinityScheduler>(ctx));
}

}  // namespace

const Scheduler& Fifo() {
  static const FifoScheduler fifo{};
  return fifo;
}

const SchedulerTable& Schedulers() {
  static const SchedulerTable table(
      "scheduler",
      {{"fifo", MakeFifo}, {"hash-affinity", MakeHashAffinity}});
  return table;
}

Status ValidateSchedulerParams(const std::string& scheduler,
                               const std::string& load_model) {
  Status st = Schedulers().Check(scheduler);
  if (!st.ok()) return st;
  if (scheduler == "hash-affinity" && load_model != "open") {
    return Status::InvalidArgument(
        "scheduler 'hash-affinity' steers an admission queue and needs the "
        "open load model (got '" + load_model +
        "'); use --load-model=open with --offered-tps");
  }
  return Status::OK();
}

}  // namespace chiller::schedule
