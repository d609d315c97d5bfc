#include "txn/dependency_graph.h"

#include <algorithm>
#include <cstdint>

#include "common/logging.h"

namespace chiller::txn {

Status DependencyAnalysis::Validate(std::span<const Operation> ops) {
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
bool CanJoinInner(const Transaction& txn, size_t i, PartitionId host) {
  const Access& acc = txn.accesses[i];
  if (acc.key_resolved) {
    if (acc.partition != host) return false;
  } else {
    // Unresolved key: only a static co-location guarantee makes this legal.
    if (!txn.ops[i].co_located_with_dep) return false;
  }
  for (int c : txn.op_list()->PkChildren(i)) {
    if (!CanJoinInner(txn, static_cast<size_t>(c), host)) return false;
  }
  return true;
}

}  // namespace

TwoRegionPlan DependencyAnalysis::Plan(const Transaction& txn,
                                       const HotFn& is_hot) {
  TwoRegionPlan plan;
  const size_t n = txn.ops.size();
  // Per-thread scratch, reused across calls: Plan runs on simulator shard
  // threads and never re-enters itself.
  thread_local std::vector<int> hot_per_partition;
  thread_local std::vector<uint8_t> inner;

  // Step 1: hot records eligible for an inner region, counted per
  // partition (indexed by partition id).
  hot_per_partition.clear();
  for (size_t i = 0; i < n; ++i) {
    const Access& acc = txn.accesses[i];
    if (!acc.key_resolved || !is_hot(acc.rid)) continue;
    const PartitionId p = acc.partition;
    CHILLER_DCHECK(p != kInvalidPartition) << "op " << i << " is unplaced";
    if (!CanJoinInner(txn, i, p)) continue;
    if (p >= hot_per_partition.size()) hot_per_partition.resize(p + 1, 0);
    ++hot_per_partition[p];
  }
  if (hot_per_partition.empty()) {
    plan.fallback_reason = "no eligible hot records";
    return plan;
  }

  // Step 2: single inner host = candidate partition with most hot records
  // (ties broken toward the lowest id for determinism: the first maximum).
  const auto host = static_cast<PartitionId>(
      std::ranges::max_element(hot_per_partition) - hot_per_partition.begin());

  // Closure: every op on the host partition joins the inner region when its
  // pk-descendant closure allows; everything else is outer. Membership of
  // unresolved-key ops follows their co-location parent, which comes
  // earlier in program order, so one forward pass settles it.
  inner.assign(n, 0);
  size_t num_inner = 0;
  for (size_t i = 0; i < n; ++i) {
    const Access& acc = txn.accesses[i];
    if (acc.key_resolved) {
      inner[i] = acc.partition == host && CanJoinInner(txn, i, host);
    } else if (txn.ops[i].co_located_with_dep) {
      // Its key resolves inside the inner region; the guarantee says it
      // lands on the host partition.
      inner[i] = inner[static_cast<size_t>(txn.ops[i].pk_deps.front())];
    }
    num_inner += inner[i];
  }
  // The host's own eligible hot records joined above.
  CHILLER_DCHECK(num_inner > 0);

  auto any_inner = [](const std::vector<int>& deps) {
    return std::ranges::any_of(
        deps, [](int d) { return inner[static_cast<size_t>(d)] != 0; });
  };

  // Guard legality: every guard must run before the inner region commits.
  // An outer op's guard may only depend on outer reads.
  for (size_t i = 0; i < n; ++i) {
    if (!inner[i] && txn.ops[i].guard && any_inner(txn.ops[i].v_deps)) {
      plan.fallback_reason = "outer guard depends on inner read";
      return plan;
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
        plan.fallback_reason =
            "outer op in a skip group guarded by an inner probe";
        return plan;
      }
    }
  }

  // An outer op whose *key* depends on an inner read is illegal: its lock
  // could only be taken after the inner region committed. Outer writes that
  // consume inner results defer their apply (outer phase 2).
  auto deferred = [&](size_t i) {
    return txn.ops[i].IsWrite() && any_inner(txn.ops[i].v_deps);
  };
  size_t num_deferred = 0;
  for (size_t i = 0; i < n; ++i) {
    if (inner[i]) continue;
    if (any_inner(txn.ops[i].pk_deps)) {
      plan.fallback_reason = "outer op pk-depends on inner op";
      return plan;
    }
    num_deferred += deferred(i);
  }

  plan.two_region = true;
  plan.inner_host = host;
  plan.inner_ops.reserve(num_inner);
  plan.outer_ops.reserve(n - num_inner);
  plan.deferred_apply.reserve(num_deferred);
  for (size_t i = 0; i < n; ++i) {
    const int op = static_cast<int>(i);
    (inner[i] ? plan.inner_ops : plan.outer_ops).push_back(op);
    if (!inner[i] && deferred(i)) plan.deferred_apply.push_back(op);
  }
  return plan;
}

}  // namespace chiller::txn
