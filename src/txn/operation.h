// Declarative transaction operations.
//
// A stored procedure compiles into a list of Operations. Each operation
// touches exactly one record (multi-record logic, e.g. a TPC-C order's item
// loop, expands into one operation per record at generation time). The
// declarative structure — key functions, pk-/v-dependencies, guards — is
// what the dependency-graph analysis of paper Section 3.2 consumes.
#ifndef CHILLER_TXN_OPERATION_H_
#define CHILLER_TXN_OPERATION_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/logging.h"
#include "common/types.h"
#include "storage/partition_store.h"
#include "storage/record.h"

namespace chiller::txn {

/// What the operation does to its record.
enum class OpType {
  kRead,    ///< shared or exclusive read; on_read captures values
  kUpdate,  ///< read-modify-write; on_read then on_apply
  kInsert,  ///< creates a record via make_record
  kErase,   ///< deletes the record
};

/// Runtime state a transaction's closures read and write: the procedure's
/// input parameters plus slot-addressed local variables (e.g. a computed
/// order total, a flight price read earlier).
struct TxnContext {
  std::vector<int64_t> params;
  std::vector<int64_t> vars;

  int64_t Param(size_t i) const {
    CHILLER_DCHECK(i < params.size());
    return params[i];
  }
  int64_t Var(size_t i) const {
    CHILLER_DCHECK(i < vars.size());
    return vars[i];
  }
  void SetVar(size_t i, int64_t v) {
    if (i >= vars.size()) vars.resize(i + 1, 0);
    vars[i] = v;
  }
};

/// Computes the primary key of an operation's record. For operations with
/// pk-dependencies the function may read context variables produced by the
/// parent operation (e.g. seat_id derived from the flight record).
using KeyFn = std::function<Key(const TxnContext&)>;

/// Runs when the record's current value is fetched (under the lock).
using ReadFn = std::function<void(TxnContext&, const storage::Record&)>;

/// Mutates the (buffered) record image; runs at apply time.
using ApplyFn = std::function<void(TxnContext&, storage::Record*)>;

/// Value constraint ("if" condition). False => the transaction must abort
/// with a user abort. Guards are evaluated where the operation executes;
/// placement legality is enforced by the two-region planner.
using GuardFn = std::function<bool(const TxnContext&)>;

/// Builds the record image for an insert.
using MakeRecordFn = std::function<storage::Record(const TxnContext&)>;

/// One record access inside a transaction.
struct Operation {
  /// Stable id of the stored-procedure template this op instantiates
  /// (several instances may share one template, e.g. per-item stock ops).
  int template_id = -1;

  OpType type = OpType::kRead;
  TableId table = 0;
  storage::LockMode mode = storage::LockMode::kShared;

  /// Key computation; callable once every op in `pk_deps` has executed.
  KeyFn key_fn;

  /// Instance indices of operations whose *read results determine this
  /// op's primary key* (solid edges in Figure 4). Restricts re-ordering.
  std::vector<int> pk_deps;

  /// Instance indices of operations whose read results feed this op's new
  /// values or guard (dashed edges in Figure 4). Do not restrict lock
  /// order, but do force apply-order and guard placement.
  std::vector<int> v_deps;

  GuardFn guard;             ///< optional value constraint
  ReadFn on_read;            ///< optional
  ApplyFn on_apply;          ///< optional (kUpdate)
  MakeRecordFn make_record;  ///< kInsert only

  /// Static guarantee that this op's key lands on the same partition as its
  /// first pk-dependency's record (e.g. a composite key sharing the
  /// partitioning prefix, like the seats table keyed by flight_id). Allows
  /// the parent to enter an inner region despite the unresolved child key
  /// (Section 3.3 step 1, case (b)).
  bool co_located_with_dep = false;

  /// The table is fully replicated to every partition and read-only (TPC-C
  /// ITEM): the access is served from the coordinator's local copy instead
  /// of the partitioner's placement. Must be a read.
  bool access_local_replica = false;

  /// The record may legitimately be absent (e.g. TPC-C Delivery probing for
  /// an undelivered order). A miss is not an error: the op becomes a no-op
  /// and, if `skip_group` is set, the rest of its group is skipped.
  bool may_be_missing = false;

  /// Conditional-execution group: when a may_be_missing op in this group
  /// misses, every later op with the same group id is skipped. -1 = none.
  int skip_group = -1;

  bool IsWrite() const { return type != OpType::kRead; }
};

/// A logical transaction's op list and what derives from the ops alone,
/// built once and shared read-only by all of its attempts.
class OpList {
 public:
  OpList(std::vector<Operation> built, size_t built_vars);

  const std::vector<Operation> ops;
  /// Context var slots; every attempt starts with them zeroed.
  const size_t num_vars;

  /// Indices of the ops with a pk-dependency on op `i`, ascending.
  std::span<const int> PkChildren(size_t i) const {
    if (children_.empty()) return {};
    return {children_.data() + children_[i],
            static_cast<size_t>(children_[i + 1] - children_[i])};
  }

 private:
  /// Entries [0, n] are offsets into this vector: op i's children are
  /// [children_[i], children_[i + 1]). Empty when no op has a pk-dep.
  std::vector<int> children_;
};

}  // namespace chiller::txn

#endif  // CHILLER_TXN_OPERATION_H_
