// Move-only, type-erased callables for the event path: every scheduled event
// and every protocol continuation is one of these.
#ifndef CHILLER_SIM_FN_H_
#define CHILLER_SIM_FN_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <new>
#include <type_traits>
#include <utility>

namespace chiller::sim {

namespace fn_pool {

/// Node size classes. A closure node is rounded up to the smallest class
/// that holds it; a node larger than the last class comes from operator new
/// and goes back to it.
inline constexpr size_t kClassBytes[] = {64, 128, 256, 512};
inline constexpr size_t kNumClasses = std::size(kClassBytes);

/// Most free nodes one thread keeps per class. Under the sharded simulator
/// a node is freed on whichever thread ran its event, so a thread can free
/// far more nodes than it allocates; past the cap they go back to the heap.
inline constexpr uint32_t kMaxFreePerClass = 256;

#if defined(__SANITIZE_ADDRESS__)
/// AddressSanitizer must see every node freed, or a use-after-free of an
/// event closure would land in a recycled node unreported.
inline constexpr bool kPooled = false;
#else
inline constexpr bool kPooled = true;
#endif

/// Index of the smallest class holding `bytes`; kNumClasses when none does.
constexpr size_t ClassOf(size_t bytes) {
  size_t c = 0;
  while (c < kNumClasses && kClassBytes[c] < bytes) ++c;
  return c;
}

struct FreeNode {
  FreeNode* next;
};

/// One thread's free lists. Trivially destructible, so it stays usable
/// until the thread ends; ArmDrain's guard empties it at thread exit.
struct ThreadLists {
  FreeNode* head[kNumClasses];
  uint32_t size[kNumClasses];
  bool armed;  ///< the thread-exit drain is registered
};

inline constinit thread_local ThreadLists tls_lists{};

/// Registers this thread's exit-time drain (out of line: runs once per
/// thread). The drain frees every listed node and marks every list full,
/// so frees that happen later (static destructors) go straight to the heap.
void ArmDrain();

/// Nodes on this thread's free lists (tests).
size_t FreeNodes();

template <size_t Bytes>
void* Allocate() {
  constexpr size_t c = ClassOf(Bytes);
  if constexpr (!kPooled || c == kNumClasses) {
    return ::operator new(Bytes);
  } else {
    ThreadLists& l = tls_lists;
    if (FreeNode* n = l.head[c]) {
      l.head[c] = n->next;
      --l.size[c];
      return n;
    }
    return ::operator new(kClassBytes[c]);
  }
}

template <size_t Bytes>
void Free(void* p) noexcept {
  constexpr size_t c = ClassOf(Bytes);
  if constexpr (!kPooled || c == kNumClasses) {
    ::operator delete(p);
  } else {
    ThreadLists& l = tls_lists;
    if (l.size[c] >= kMaxFreePerClass) {
      ::operator delete(p);
      return;
    }
    if (!l.armed) ArmDrain();
    l.head[c] = ::new (p) FreeNode{l.head[c]};
    ++l.size[c];
  }
}

}  // namespace fn_pool

template <typename Sig>
class Fn;

/// A move-only std::function replacement. The callable is built once, in
/// place, in a node drawn from the calling thread's size-class free list
/// (fn_pool), and never moves again: moving an Fn copies one pointer, and
/// destroying it returns the node to the destroying thread's list. A lambda
/// converts implicitly, so call sites read exactly as with std::function;
/// a capture that is itself move-only (another Fn) is fine.
template <typename R, typename... Args>
class Fn<R(Args...)> {
 public:
  Fn() noexcept = default;

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, Fn> &&
                                        std::is_invocable_r_v<R, D&, Args...>>>
  Fn(F&& f)  // NOLINT: implicit, so lambdas convert at call sites
      : node_(Make<D>(std::forward<F>(f))) {}

  Fn(Fn&& other) noexcept : node_(std::exchange(other.node_, nullptr)) {}
  Fn& operator=(Fn&& other) noexcept {
    if (this != &other) {
      reset();
      node_ = std::exchange(other.node_, nullptr);
    }
    return *this;
  }
  Fn(const Fn&) = delete;
  Fn& operator=(const Fn&) = delete;
  ~Fn() { reset(); }

  explicit operator bool() const noexcept { return node_ != nullptr; }

  /// Invokes the callable. Like std::function, const does not propagate to
  /// the closure's captures. Must not be empty.
  R operator()(Args... args) const {
    return node_->Call(std::forward<Args>(args)...);
  }

 private:
  struct NodeBase {
    virtual R Call(Args&&... args) = 0;
    /// Destroys the node and returns its memory to the pool.
    virtual void Destroy() noexcept = 0;

   protected:
    ~NodeBase() = default;
  };

  template <typename D>
  struct Node final : NodeBase {
    template <typename F>
    explicit Node(F&& f) : fn(std::forward<F>(f)) {}
    R Call(Args&&... args) override {
      return std::invoke(fn, std::forward<Args>(args)...);
    }
    void Destroy() noexcept override {
      this->~Node();
      fn_pool::Free<sizeof(Node)>(this);
    }
    D fn;
  };

  template <typename D, typename F>
  static NodeBase* Make(F&& f) {
    static_assert(alignof(Node<D>) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                  "over-aligned closure");
    void* mem = fn_pool::Allocate<sizeof(Node<D>)>();
    try {
      return ::new (mem) Node<D>(std::forward<F>(f));
    } catch (...) {
      fn_pool::Free<sizeof(Node<D>)>(mem);
      throw;
    }
  }

  void reset() noexcept {
    if (node_ != nullptr) std::exchange(node_, nullptr)->Destroy();
  }

  NodeBase* node_ = nullptr;
};

/// A scheduled event or a continuation with no result.
using Task = Fn<void()>;

}  // namespace chiller::sim

#endif  // CHILLER_SIM_FN_H_
