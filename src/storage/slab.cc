#include "storage/slab.h"

#include <sys/mman.h>

#include <algorithm>
#include <cstdint>

#include "common/logging.h"

namespace chiller::storage {

namespace {
constexpr size_t RoundUp(size_t n, size_t to) { return (n + to - 1) / to * to; }
}  // namespace

Slab& Slab::Get() {
  static Slab* const slab = new Slab();
  return *slab;
}

void* Slab::Allocate(size_t bytes) {
  const size_t n = RoundUp(bytes, kPieceAlign);
  std::lock_guard<std::mutex> lock(mu_);
  char* p;
  if (std::vector<char*>& list = free_[n]; !list.empty()) {
    p = list.back();
    list.pop_back();
  } else {
    if (static_cast<size_t>(end_ - cursor_) < n) NewExtent(n);
    p = cursor_;
    cursor_ += n;
  }
  CHILLER_UNPOISON(p, n);
  return p;
}

void Slab::Free(void* piece, size_t bytes) {
  const size_t n = RoundUp(bytes, kPieceAlign);
  std::lock_guard<std::mutex> lock(mu_);
  CHILLER_POISON(piece, n);
  free_[n].push_back(static_cast<char*>(piece));
}

size_t Slab::mapped_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t total = 0;
  for (const std::span<char>& e : extents_) total += e.size();
  return total;
}

std::span<const char> Slab::ExtentOf(const void* p) const {
  const auto* c = static_cast<const char*>(p);
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::span<char>& e : extents_) {
    if (c >= e.data() && c < e.data() + e.size()) return e;
  }
  return {};
}

void Slab::NewExtent(size_t bytes) {
  const size_t extent = std::max(kExtentBytes, RoundUp(bytes, kHugePageBytes));
  // mmap only promises page alignment: map one huge page more and trim the
  // misaligned head and the tail.
  const size_t span = extent + kHugePageBytes;
  void* mem = mmap(nullptr, span, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  CHILLER_CHECK(mem != MAP_FAILED)
      << "slab: mmap of " << span << " bytes failed";
  const auto raw = reinterpret_cast<uintptr_t>(mem);
  const uintptr_t base = RoundUp(raw, kHugePageBytes);
  if (base > raw) munmap(mem, base - raw);
  if (const uintptr_t tail = raw + span - (base + extent); tail > 0) {
    munmap(reinterpret_cast<void*>(base + extent), tail);
  }
  char* begin = reinterpret_cast<char*>(base);
  // A hint: where transparent huge pages are off it fails or does nothing,
  // and the extent is backed by small pages instead.
  madvise(begin, extent, MADV_HUGEPAGE);
  CHILLER_POISON(begin, extent);
  extents_.emplace_back(begin, extent);
  cursor_ = begin;
  end_ = begin + extent;
}

}  // namespace chiller::storage
