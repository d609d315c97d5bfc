#include "txn/dependency_graph.h"

#include <algorithm>
#include <map>

#include "common/logging.h"

namespace chiller::txn {

std::vector<std::vector<int>> DependencyAnalysis::PkChildren(
    const std::vector<Operation>& ops) {
  std::vector<std::vector<int>> children(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    for (int d : ops[i].pk_deps) {
      children[static_cast<size_t>(d)].push_back(static_cast<int>(i));
    }
  }
  return children;
}

Status DependencyAnalysis::Validate(const std::vector<Operation>& ops) {
  for (size_t i = 0; i < ops.size(); ++i) {
    const Operation& op = ops[i];
    if (!op.key_fn) {
      return Status::InvalidArgument("op " + std::to_string(i) +
                                     " missing key_fn");
    }
    for (int d : op.pk_deps) {
      if (d < 0 || static_cast<size_t>(d) >= i) {
        return Status::InvalidArgument("op " + std::to_string(i) +
                                       " pk-dep out of order");
      }
    }
    for (int d : op.v_deps) {
      if (d < 0 || static_cast<size_t>(d) >= i) {
        return Status::InvalidArgument("op " + std::to_string(i) +
                                       " v-dep out of order");
      }
    }
    if (op.type == OpType::kInsert && !op.make_record) {
      return Status::InvalidArgument("insert op " + std::to_string(i) +
                                     " missing make_record");
    }
    if (op.type == OpType::kUpdate && !op.on_apply && !op.on_read) {
      return Status::InvalidArgument("update op " + std::to_string(i) +
                                     " has no closure");
    }
    if (op.IsWrite() && op.mode != storage::LockMode::kExclusive) {
      return Status::InvalidArgument("write op " + std::to_string(i) +
                                     " must lock exclusive");
    }
    if (op.co_located_with_dep && op.pk_deps.empty()) {
      return Status::InvalidArgument("op " + std::to_string(i) +
                                     " co-located without pk-dep");
    }
  }
  return Status::OK();
}

namespace {

/// Can op `i` execute inside an inner region hosted on partition `host`?
/// Recursively requires every pk-descendant to be placeable there too
/// (Section 3.3 step 1: a record cannot move to the inner region if any
/// child's key is unknown or lives on another partition).
bool CanJoinInner(const Transaction& txn,
                  const std::vector<std::vector<int>>& children, size_t i,
                  PartitionId host) {
  const Access& acc = txn.accesses[i];
  if (acc.key_resolved) {
    if (acc.partition != host) return false;
  } else {
    // Unresolved key: only a static co-location guarantee makes this legal.
    if (!txn.ops[i].co_located_with_dep) return false;
  }
  for (int c : children[i]) {
    if (!CanJoinInner(txn, children, static_cast<size_t>(c), host)) {
      return false;
    }
  }
  return true;
}

}  // namespace

TwoRegionPlan DependencyAnalysis::Plan(const Transaction& txn,
                                       const HotFn& is_hot) {
  TwoRegionPlan plan;
  const size_t n = txn.ops.size();
  CHILLER_CHECK(txn.accesses.size() == n) << "InitAccesses not called";
  const auto children = PkChildren(txn.ops);

  // Step 1: hot records eligible for an inner region, grouped by partition.
  std::map<PartitionId, int> hot_per_partition;
  for (size_t i = 0; i < n; ++i) {
    const Access& acc = txn.accesses[i];
    if (!acc.key_resolved || !is_hot(acc.rid)) continue;
    const PartitionId p = acc.partition;
    if (CanJoinInner(txn, children, i, p)) ++hot_per_partition[p];
  }
  if (hot_per_partition.empty()) {
    plan.fallback_reason = "no eligible hot records";
    return plan;
  }

  // Step 2: single inner host = candidate partition with most hot records
  // (ties broken toward the lowest id for determinism).
  PartitionId host = kInvalidPartition;
  int best = -1;
  for (const auto& [p, cnt] : hot_per_partition) {
    if (cnt > best) {
      best = cnt;
      host = p;
    }
  }

  // Closure: every op on the host partition joins the inner region when its
  // pk-descendant closure allows; everything else is outer. Membership of
  // unresolved-key ops follows their co-location parent.
  std::vector<bool> inner(n, false);
  for (size_t i = 0; i < n; ++i) {
    const Access& acc = txn.accesses[i];
    if (acc.key_resolved && acc.partition == host &&
        CanJoinInner(txn, children, i, host)) {
      inner[i] = true;
    }
  }
  // Pull in co-located children of inner ops (keys resolve inside the
  // inner region; the guarantee says they land on the host partition).
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 0; i < n; ++i) {
      if (inner[i] || txn.accesses[i].key_resolved) continue;
      if (!txn.ops[i].co_located_with_dep) continue;
      const int parent = txn.ops[i].pk_deps.front();
      if (inner[static_cast<size_t>(parent)]) {
        inner[i] = true;
        changed = true;
      }
    }
  }

  // Guard legality: every guard must run before the inner region commits.
  // An outer op's guard may only depend on outer reads.
  for (size_t i = 0; i < n; ++i) {
    if (inner[i] || !txn.ops[i].guard) continue;
    for (int d : txn.ops[i].v_deps) {
      if (inner[static_cast<size_t>(d)]) {
        plan.fallback_reason =
            "outer guard depends on inner read (op " + std::to_string(i) + ")";
        return plan;
      }
    }
  }

  // Skip-group legality: a group member must never execute before the probe
  // that can disable its group. The outer region runs first, so an outer
  // member whose group can be killed by an earlier inner op (a may_be_missing
  // probe) would access a record the probe was meant to skip.
  for (size_t i = 0; i < n; ++i) {
    if (inner[i] || txn.ops[i].skip_group < 0) continue;
    for (size_t j = 0; j < i; ++j) {
      if (inner[j] && txn.ops[j].may_be_missing &&
          txn.ops[j].skip_group == txn.ops[i].skip_group) {
        plan.fallback_reason = "outer op in a skip group guarded by an inner "
                               "probe (op " +
                               std::to_string(i) + ")";
        return plan;
      }
    }
  }

  // An outer op whose *key* depends on an inner read is illegal: its lock
  // could only be taken after the inner region committed.
  for (size_t i = 0; i < n; ++i) {
    if (inner[i]) continue;
    for (int d : txn.ops[i].pk_deps) {
      if (inner[static_cast<size_t>(d)]) {
        plan.fallback_reason =
            "outer op pk-depends on inner op (op " + std::to_string(i) + ")";
        return plan;
      }
    }
  }

  for (size_t i = 0; i < n; ++i) {
    if (inner[i]) {
      plan.inner_ops.push_back(static_cast<int>(i));
    } else {
      plan.outer_ops.push_back(static_cast<int>(i));
      // Defer the apply of outer writes that consume inner results.
      bool deferred = false;
      for (int d : txn.ops[i].v_deps) {
        if (inner[static_cast<size_t>(d)]) deferred = true;
      }
      if (deferred && txn.ops[i].IsWrite()) {
        plan.deferred_apply.push_back(static_cast<int>(i));
      }
    }
  }

  plan.two_region = !plan.inner_ops.empty();
  plan.inner_host = host;
  if (!plan.two_region) {
    // Fallback plans carry no op lists: the transaction executes whole
    // under plain 2PL + 2PC.
    plan.fallback_reason = "empty inner region";
    plan.inner_host = kInvalidPartition;
    plan.outer_ops.clear();
    plan.deferred_apply.clear();
  }
  return plan;
}

}  // namespace chiller::txn
