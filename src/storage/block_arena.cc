#include "storage/block_arena.h"

#include <new>

#include "common/logging.h"
#include "storage/slab.h"

namespace chiller::storage {

static_assert(Slab::kPieceAlign % BlockArena::kLineBytes == 0,
              "a chunk must start on a line for its blocks to");

BlockArena::~BlockArena() {
  for (const Chunk& chunk : chunks_) Slab::Get().Free(chunk.mem, chunk.bytes);
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
  void* mem = Slab::Get().Allocate(bytes);
  chunks_.push_back({mem, bytes});
  CHILLER_POISON(mem, bytes);
  return static_cast<char*>(mem);
}

}  // namespace chiller::storage
