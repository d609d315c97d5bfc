#include "txn/operation.h"

#include <numeric>
#include <utility>

namespace chiller::txn {

OpList::OpList(std::vector<Operation> built, size_t built_vars)
    : ops(std::move(built)), num_vars(built_vars) {
  size_t edges = 0;
  for (const Operation& op : ops) edges += op.pk_deps.size();
  if (edges == 0) return;
  // Counting sort of the pk-dep edges by parent: count each parent's
  // children, prefix-sum the counts into end offsets, then place children
  // from the last down, each at its parent's decremented offset. That
  // leaves every offset at its list's start and every list ascending.
  const size_t n = ops.size();
  children_.assign(n + 1 + edges, 0);
  children_[0] = static_cast<int>(n + 1);
  for (const Operation& op : ops) {
    for (int d : op.pk_deps) ++children_[static_cast<size_t>(d)];
  }
  std::partial_sum(children_.begin(), children_.begin() + n + 1,
                   children_.begin());
  for (size_t c = n; c-- > 0;) {
    for (int d : ops[c].pk_deps) {
      children_[static_cast<size_t>(--children_[static_cast<size_t>(d)])] =
          static_cast<int>(c);
    }
  }
}

}  // namespace chiller::txn
