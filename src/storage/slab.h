// Process-wide memory for every store's bucket arrays and bucket blocks.
#ifndef CHILLER_STORAGE_SLAB_H_
#define CHILLER_STORAGE_SLAB_H_

#include <cstddef>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#define CHILLER_POISON(p, n) ASAN_POISON_MEMORY_REGION(p, n)
#define CHILLER_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION(p, n)
#else
#define CHILLER_POISON(p, n) ((void)(p), (void)(n))
#define CHILLER_UNPOISON(p, n) ((void)(p), (void)(n))
#endif

namespace chiller::storage {

/// The one source of store memory: every Table's bucket array and every
/// BlockArena chunk is a piece of it. A probe lands at random in one of a
/// cluster's stores (TPC-C's 16 primaries and 16 replicas hold about 90 MB),
/// far more 4 KB pages than the TLB maps, so the slab backs that memory
/// with 2 MB pages: it maps kHugePageBytes-aligned extents of kExtentBytes
/// (or one larger extent for a larger piece) and asks for transparent huge
/// pages on each (madvise(MADV_HUGEPAGE); where the host disables them the
/// hint does nothing and every other step is the same).
///
/// Pieces are carved from the newest extent in order, rounded up to whole
/// kPieceAlign lines, so they start on a cache line and the stores of one
/// cluster sit together; the newest extent's untouched tail costs no
/// resident memory. A freed piece goes on the free list of its exact size
/// and the next request of that size takes it first, so the next store of
/// the same schema reuses its predecessor's memory: repeated builds of one
/// cluster (the benchmark's sub-runs, a bench sweep's scenarios) leave the
/// mapped bytes flat. Extents are never unmapped.
///
/// One mutex guards the slab. It is taken once per table and once per
/// arena chunk, never per probe or per block. Addresses reach no ordering,
/// so which piece a store gets changes no simulated result.
///
/// Under AddressSanitizer the uncarved rest of every extent and every
/// freed piece are poisoned, so a stale pointer into either is reported.
class Slab {
 public:
  static constexpr size_t kHugePageBytes = size_t{2} << 20;
  static constexpr size_t kExtentBytes = size_t{32} << 20;
  static constexpr size_t kPieceAlign = 64;

  /// The process's slab. It is never destroyed, so a store may die during
  /// static destruction.
  static Slab& Get();

  Slab(const Slab&) = delete;
  Slab& operator=(const Slab&) = delete;

  /// Uninitialised, kPieceAlign-aligned room for `bytes` bytes.
  void* Allocate(size_t bytes);
  /// Returns a piece from Allocate(bytes), with the same `bytes`.
  void Free(void* piece, size_t bytes);

  /// Bytes of every extent mapped so far.
  size_t mapped_bytes() const;
  /// The extent that holds `p`, or an empty span.
  std::span<const char> ExtentOf(const void* p) const;

 private:
  Slab() = default;
  /// Maps a fresh, poisoned extent with room for `bytes` and makes it the
  /// one pieces are carved from. The old extent's tail stays unused.
  void NewExtent(size_t bytes);

  mutable std::mutex mu_;
  std::vector<std::span<char>> extents_;
  /// Uncarved rest of the newest extent.
  char* cursor_ = nullptr;
  char* end_ = nullptr;
  /// Freed pieces by exact (rounded) size.
  std::unordered_map<size_t, std::vector<char*>> free_;
};

}  // namespace chiller::storage

#endif  // CHILLER_STORAGE_SLAB_H_
