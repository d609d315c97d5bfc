// Contention-aware transaction scheduling ahead of admission.
//
// Chiller's thesis is that contention — not network latency — is the
// scarce resource, yet the load models only decide *when* work enters an
// engine, never *which* transaction or *in what order*. A Scheduler sits
// between arrival and engine admission and closes that gap: it assigns
// each generated transaction a predicted conflict class from the
// per-record heat the partitioning pipeline already estimates
// (RecordPartitioner::IsHot — rank thresholds for ycsb, the contention
// model + StatsCollector behind a Chiller lookup table for adaptive
// layouts), then steers same-class transactions to the same engine or
// window so probable aborts become orderly queueing (Prasaad et al.,
// "Improving High Contention OLTP Performance via Transaction
// Scheduling"; NEMO-style batch formation for the batched model).
//
// Three built-in policies behind a string-keyed registry:
//
//   fifo           no classification, no steering: arrivals are admitted
//                  in order on their own engine. It is installed like any
//                  other policy (a Driver starts with it), and because it
//                  does not classify, the open loop defers each draw to
//                  launch — see Classifies().
//   hash-affinity  open model: transactions *writing* a hot record are
//                  classed by that record and routed to the engine that
//                  owns it; the open loop then never runs two in-flight
//                  transactions of the same class concurrently, so a
//                  NO_WAIT abort storm on a contended record turns into
//                  admission-queue waiting. Hot reads stay cold: shared
//                  locks cannot storm.
//   batch-pack     batched model: deterministic conflict-free batch
//                  formation — a batch never contains two transactions of
//                  the same hot class; colliding draws are deferred to a
//                  later batch.
//
// The scheduler is pure policy: it never mutates engine state itself. The
// load models own admission, and cross-engine steering travels through
// the network fabric so per-engine state is only touched from its own
// event domain (the sharded simulator's correctness rule).
#ifndef CHILLER_SCHEDULE_SCHEDULER_H_
#define CHILLER_SCHEDULE_SCHEDULER_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "partition/lookup_table.h"
#include "txn/transaction.h"

namespace chiller::schedule {

/// The "no predicted conflict" class: cold transactions are never
/// serialized against each other and never steered off their arrival
/// engine. Matches txn::Transaction::sched_class's default.
inline constexpr uint32_t kColdClass = 0xffffffffu;

/// Everything a scheduler may consult, captured at wiring time.
struct SchedulerContext {
  uint32_t num_engines = 1;
  /// Conflict-class universe size; 0 picks a default large enough that
  /// distinct hot records rarely share a class (see EffectiveClasses).
  uint32_t classes = 0;
  /// The live placement + heat source (the workload bundle's partitioner;
  /// for adaptive workloads this is the swappable indirection, so the
  /// scheduler tracks relayouts automatically). May be null only for
  /// policies that do not classify.
  const partition::RecordPartitioner* partitioner = nullptr;
  uint64_t seed = 1;

  uint32_t EffectiveClasses() const {
    if (classes != 0) return classes;
    // Enough classes that the per-partition hot sets (typically a few
    // records each) rarely collide, while the map stays tiny.
    return std::max<uint32_t>(256, 64 * num_engines);
  }
};

/// Admission-scheduling policy: classify, then route. Implementations must
/// be pure functions of (context, transaction) — Classify and Route are
/// called from engine contexts under the sharded simulator, concurrently
/// and in nondeterministic real-time order, so any internal state would
/// break byte-identical determinism.
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  virtual const char* name() const = 0;

  /// False for policies whose Classify always returns kColdClass and whose
  /// Route always returns the arrival engine (fifo). Nothing then depends
  /// on the transaction before it runs, so the open loop draws it at
  /// launch rather than at arrival: a shed arrival draws nothing, and the
  /// engine's workload RNG advances in launch order.
  virtual bool Classifies() const { return true; }

  /// Predicted conflict class of `t`, or kColdClass when no conflict is
  /// expected. Requires t.accesses initialized with ready keys resolved
  /// (Driver::Draw does both). Must be deterministic and stable across
  /// retries of the same logical transaction.
  virtual uint32_t Classify(const txn::Transaction& t) const = 0;

  /// The engine that should admit `t` (classified as `cls`, generated by
  /// engine `arrival`'s arrival process). Returning `arrival` means no
  /// steering; anything else is forwarded through the fabric.
  virtual EngineId Route(const txn::Transaction& t, uint32_t cls,
                         EngineId arrival) const = 0;

  /// True when the open loop must never run two in-flight transactions of
  /// the same non-cold class concurrently on one engine (conflicts become
  /// queueing instead of aborts).
  virtual bool SerializeClasses() const { return false; }
};

// ---------------------------------------------------------------------------
// Shed policy: who is dropped when an admission queue overflows
// ---------------------------------------------------------------------------

/// Overload behavior of a full admission queue. drop-new (the default)
/// sheds the arrival. The temperature-aware policies trade
/// work classes against each other: drop-cold sheds uncontended work to
/// keep the hot requests the scheduler can serialize efficiently;
/// drop-hot sheds the contended work whose serialized service time is the
/// bottleneck, protecting cold throughput.
enum class ShedPolicy : uint8_t { kDropNew, kDropCold, kDropHot };

StatusOr<ShedPolicy> ParseShedPolicy(const std::string& name);
const char* ShedPolicyName(ShedPolicy policy);

/// The shed decision for one overflowing arrival, as a pure function so
/// the ordering semantics are unit-testable: given the queued requests'
/// temperatures (hot = classified non-cold) and the arrival's, returns
/// the index of the queued request to evict in the arrival's favor, or -1
/// when the arrival itself should be shed.
///
///   drop-new   always -1.
///   drop-cold  a hot arrival evicts the *newest* cold queued request
///              (oldest cold work has waited longest and is next in line
///              — evicting the newest loses the least invested waiting);
///              a cold arrival, or a queue with no cold entry, sheds the
///              arrival.
///   drop-hot   symmetric: a cold arrival evicts the newest hot entry.
int PickVictim(const std::vector<bool>& queued_is_hot, bool arriving_is_hot,
               ShedPolicy policy);

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

using SchedulerFactory =
    std::function<StatusOr<std::unique_ptr<Scheduler>>(
        const SchedulerContext&)>;

/// The shared fifo instance every Driver starts with. Stateless, so one
/// instance serves any number of drivers on any thread.
const Scheduler& Fifo();

/// String-keyed scheduler registry, mirroring WorkloadRegistry /
/// ProtocolRegistry: benches resolve --scheduler by name and
/// --list-schedulers prints what a build supports. Global() comes
/// pre-loaded with fifo, hash-affinity, and batch-pack.
class SchedulerRegistry {
 public:
  static SchedulerRegistry& Global();

  /// FailedPrecondition if `name` is already taken.
  Status Register(const std::string& name, SchedulerFactory factory);

  /// InvalidArgument names the known schedulers when the key is unknown.
  StatusOr<std::unique_ptr<Scheduler>> Make(
      const std::string& name, const SchedulerContext& ctx) const;

  bool Has(const std::string& name) const;
  std::vector<std::string> Names() const;  ///< sorted

 private:
  std::vector<std::string> NamesLocked() const;

  mutable std::mutex mu_;
  std::map<std::string, SchedulerFactory> factories_;
};

// ---------------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------------

/// Name-level checks shared by bench flag parsing: the scheduler must be
/// registered, the shed policy must parse, and a non-default shed policy
/// needs a classifying (non-fifo) scheduler to tell hot from cold.
Status ValidateSchedulerNames(const std::string& scheduler,
                              const std::string& shed_policy);

/// Full validity, the scheduler analogue of cc::ValidateLoadModelParams
/// and the single check behind ScenarioRunner::Validate: name-level
/// checks plus model compatibility (hash-affinity steers an admission
/// queue, so it needs the open model; batch-pack forms batches, so it
/// needs the batched model). Out-of-tree registered schedulers skip the
/// compatibility check — the registry cannot know their requirements.
Status ValidateSchedulerParams(const std::string& scheduler,
                               const std::string& shed_policy,
                               const std::string& load_model);

}  // namespace chiller::schedule

#endif  // CHILLER_SCHEDULE_SCHEDULER_H_
