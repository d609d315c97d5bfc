#include "sim/fn.h"

namespace chiller::sim::fn_pool {

namespace {

/// Frees a thread's listed nodes when the thread exits.
struct Drain {
  Drain() { tls_lists.armed = true; }
  ~Drain() {
    ThreadLists& l = tls_lists;
    for (size_t c = 0; c < kNumClasses; ++c) {
      while (FreeNode* n = l.head[c]) {
        l.head[c] = n->next;
        ::operator delete(n);
      }
      l.size[c] = kMaxFreePerClass;
    }
  }
};

}  // namespace

void ArmDrain() {
  thread_local Drain drain;
  (void)drain;
}

size_t FreeNodes() {
  size_t total = 0;
  for (size_t c = 0; c < kNumClasses; ++c) {
    for (FreeNode* n = tls_lists.head[c]; n != nullptr; n = n->next) ++total;
  }
  return total;
}

}  // namespace chiller::sim::fn_pool
