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
// Scheduling").
//
// Two built-in policies in a name table:
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
//
// The scheduler is pure policy: it never mutates engine state itself. The
// load models own admission, and cross-engine steering travels through
// the network fabric so per-engine state is only touched from its own
// event domain (the sharded simulator's correctness rule).
#ifndef CHILLER_SCHEDULE_SCHEDULER_H_
#define CHILLER_SCHEDULE_SCHEDULER_H_

#include <cstdint>
#include <string>

#include "common/name_table.h"
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
  /// The live placement + heat source (the workload bundle's partitioner;
  /// for adaptive workloads this is the swappable indirection, so the
  /// scheduler tracks relayouts automatically). May be null only for
  /// policies that do not classify.
  const partition::RecordPartitioner* partitioner = nullptr;
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
  /// expected. The open loop serializes every non-cold class: it never
  /// runs two in-flight transactions of one class on one engine, so
  /// predicted conflicts become queueing instead of aborts. Requires
  /// t.accesses initialized with ready keys resolved (Driver::Draw does
  /// both). Must be deterministic and stable across
  /// retries of the same logical transaction.
  virtual uint32_t Classify(const txn::Transaction& t) const = 0;

  /// The engine that should admit `t` (classified as `cls`, generated by
  /// engine `arrival`'s arrival process). Returning `arrival` means no
  /// steering; anything else is forwarded through the fabric.
  virtual EngineId Route(const txn::Transaction& t, uint32_t cls,
                         EngineId arrival) const = 0;
};

/// The shared fifo instance every Driver starts with. Stateless, so one
/// instance serves any number of drivers on any thread.
const Scheduler& Fifo();

/// The built-in schedulers, keyed by ScenarioSpec::scheduler: benches
/// resolve --scheduler by name and --list-schedulers prints the names.
using SchedulerTable = NameTable<Scheduler, const SchedulerContext&>;
const SchedulerTable& Schedulers();

/// Full validity, the scheduler analogue of cc::ValidateLoadModelParams
/// and the single check behind ScenarioRunner::Validate: the name must be
/// in Schedulers(), and hash-affinity steers an admission queue, so it
/// needs the open model.
Status ValidateSchedulerParams(const std::string& scheduler,
                               const std::string& load_model);

}  // namespace chiller::schedule

#endif  // CHILLER_SCHEDULE_SCHEDULER_H_
