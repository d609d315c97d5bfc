// Dependency-graph analysis: re-ordering constraints and the run-time
// two-region decision (paper Sections 3.2 and 3.3).
#ifndef CHILLER_TXN_DEPENDENCY_GRAPH_H_
#define CHILLER_TXN_DEPENDENCY_GRAPH_H_

#include <functional>
#include <span>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "txn/transaction.h"

namespace chiller::txn {

/// Predicate over records: is this record in the hot lookup table?
using HotFn = std::function<bool(const RecordId&)>;

/// Output of the run-time decision (Section 3.3 steps 1-2): which operations
/// run in the inner region on which host, which run in the outer region, and
/// which outer applies must wait for inner results (value dependencies).
struct TwoRegionPlan {
  /// False => execute as a normal transaction (plain 2PL + 2PC).
  bool two_region = false;
  PartitionId inner_host = kInvalidPartition;
  /// Instance indices, preserving original relative order. Sized exactly.
  std::vector<int> inner_ops;
  std::vector<int> outer_ops;
  /// Subset of outer_ops whose on_apply must run after the inner region
  /// returns (their new values depend on inner reads), i.e. "outer region
  /// phase 2" in Figure 4.
  std::vector<int> deferred_apply;
  /// Why two_region is false, for tests and diagnostics (a literal).
  std::string_view fallback_reason;
};

/// Static + runtime dependency analysis over a transaction's op list.
/// Ops are given in program order; pk_deps/v_deps must reference earlier
/// indices, so the instance graph is a DAG by construction (validated).
class DependencyAnalysis {
 public:
  /// Checks the structural invariants of an op list: dependency indices in
  /// range and strictly smaller than the dependent op (program order is a
  /// topological order), insert/update closures present, key_fn set.
  static Status Validate(std::span<const Operation> ops);

  /// The run-time decision of Section 3.3:
  ///  step 1 — find hot records that may move to the inner region: a hot
  ///           record qualifies iff every pk-descendant either has a
  ///           resolved key on the same partition or carries a static
  ///           co-location guarantee;
  ///  step 2 — among candidate partitions, pick the one holding the most
  ///           hot records as the single inner host;
  ///  closure — every op on the inner host partition joins the inner region
  ///           when legal; pk-descendants of inner ops are pulled in;
  ///  guards  — a guard must run before the inner region commits, so an
  ///           outer op whose guard value-depends on inner reads forces a
  ///           fallback to normal execution (never a post-commit abort);
  ///  phase 2 — outer updates value-depending on inner reads are deferred.
  ///
  /// Requires txn.ResolveReadyKeys() to have run and every resolved access
  /// to carry its partition. Allocates only the plan it returns.
  static TwoRegionPlan Plan(const Transaction& txn, const HotFn& is_hot);
};

}  // namespace chiller::txn

#endif  // CHILLER_TXN_DEPENDENCY_GRAPH_H_
