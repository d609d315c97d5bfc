#include "storage/block_arena.h"

#include <sys/mman.h>

#include <new>

#include "common/logging.h"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#define CHILLER_POISON(p, n) ASAN_POISON_MEMORY_REGION(p, n)
#define CHILLER_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION(p, n)
#else
#define CHILLER_POISON(p, n) ((void)(p), (void)(n))
#define CHILLER_UNPOISON(p, n) ((void)(p), (void)(n))
#endif

namespace chiller::storage {

BlockArena::~BlockArena() {
  for (const Chunk& chunk : chunks_) {
    // A later mapping at this address must not inherit the poison.
    CHILLER_UNPOISON(chunk.mem, chunk.bytes);
    munmap(chunk.mem, chunk.bytes);
  }
}

void* BlockArena::Allocate(size_t bytes) {
  const size_t c = ClassOf(bytes);
  CHILLER_DCHECK(c < kNumClasses);
  const size_t block_bytes = kLineBytes << c;
  if (FreeBlock* b = free_[c]) {
    CHILLER_UNPOISON(b, block_bytes);
    free_[c] = b->next;
    return b;
  }
  return Carve(block_bytes);
}

void BlockArena::Free(void* block, size_t bytes) {
  const size_t c = ClassOf(bytes);
  auto* b = new (block) FreeBlock{free_[c]};
  free_[c] = b;
  CHILLER_POISON(b, kLineBytes << c);
}

void* BlockArena::Carve(size_t block_bytes) {
  if (block_bytes > kChunkBytes) {
    void* b = NewChunk(block_bytes);
    CHILLER_UNPOISON(b, block_bytes);
    return b;
  }
  if (static_cast<size_t>(end_ - cursor_) < block_bytes) {
    // The old chunk's tail, shorter than this block, stays unused.
    cursor_ = NewChunk(kChunkBytes);
    end_ = cursor_ + kChunkBytes;
  }
  void* b = cursor_;
  cursor_ += block_bytes;
  CHILLER_UNPOISON(b, block_bytes);
  return b;
}

char* BlockArena::NewChunk(size_t bytes) {
  // Page-aligned, so line-aligned; the kernel backs only the pages the
  // arena writes, so a chunk's uncarved tail costs no resident memory.
  void* mem = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  CHILLER_CHECK(mem != MAP_FAILED) << "block arena: mmap of " << bytes
                                   << " bytes failed";
  chunks_.push_back({mem, bytes});
  CHILLER_POISON(mem, bytes);
  return static_cast<char*>(mem);
}

}  // namespace chiller::storage
