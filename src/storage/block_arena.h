// Slab allocator for bucket blocks: one per PartitionStore.
#ifndef CHILLER_STORAGE_BLOCK_ARENA_H_
#define CHILLER_STORAGE_BLOCK_ARENA_H_

#include <array>
#include <bit>
#include <cstddef>
#include <vector>

namespace chiller::storage {

/// Hands out the blocks of one store's buckets. Every block starts on a
/// cache-line boundary and occupies a power-of-two number of lines, so a
/// one-entry bucket block (8-byte header plus one 48-byte entry) is exactly
/// one line and a record probe touches one line after the bucket array.
///
/// Size class c serves blocks of 64 << c bytes: a request is rounded up to
/// whole lines, then to a power of two (56 -> 64, 104 -> 128, 200 -> 256).
/// Each class keeps an intrusive free list of released blocks and reuses
/// them first. Otherwise every class carves from the same current chunk, a
/// kChunkBytes piece of the process-wide Slab (2 MB pages), so a store's
/// blocks sit together; a block larger than a chunk gets a piece of its
/// own. Under transparent huge pages a touched page is backed in full, so
/// the uncarved tail of each store's current chunk costs resident memory:
/// 256 KB chunks cost the benchmark's 32-store tpcc-chiller cluster 4 MB
/// of peak RSS more than 32 KB chunks, and chunks of 16 or 64 KB saved
/// nothing further. The arena returns its chunks to the slab when it dies,
/// where the next store of the same schema takes them.
///
/// Not thread-safe: a store is written only by the events of its own
/// engine's domain, or by migration control events between windows.
///
/// Under AddressSanitizer a released block and the uncarved tail of every
/// chunk are poisoned, so a stale Record* into either is reported.
class BlockArena {
 public:
  static constexpr size_t kLineBytes = 64;
  static constexpr size_t kChunkBytes = size_t{32} << 10;

  BlockArena() = default;
  BlockArena(const BlockArena&) = delete;
  BlockArena& operator=(const BlockArena&) = delete;
  ~BlockArena();

  /// Bytes a request of `bytes` occupies: its size class's block size.
  static constexpr size_t ClassBytes(size_t bytes) {
    return kLineBytes << ClassOf(bytes);
  }

  /// Uninitialised, kLineBytes-aligned room for `bytes` bytes.
  void* Allocate(size_t bytes);
  /// Returns a block from Allocate(bytes), with the same `bytes`.
  void Free(void* block, size_t bytes);

 private:
  static constexpr size_t ClassOf(size_t bytes) {
    const size_t lines = (bytes + kLineBytes - 1) / kLineBytes;
    return static_cast<size_t>(std::bit_width(lines - 1));
  }
  static constexpr size_t kNumClasses = 40;

  struct Chunk {
    void* mem;
    size_t bytes;
  };
  struct FreeBlock {
    FreeBlock* next;
  };
  /// Carves a fresh block of `block_bytes` from the current chunk, starting
  /// a new one when it is too short; a block larger than kChunkBytes gets a
  /// chunk of its own.
  void* Carve(size_t block_bytes);
  /// Takes a new, poisoned chunk of `bytes` from the slab.
  char* NewChunk(size_t bytes);

  std::array<FreeBlock*, kNumClasses> free_{};
  /// Uncarved rest of the newest chunk, shared by every class.
  char* cursor_ = nullptr;
  char* end_ = nullptr;
  std::vector<Chunk> chunks_;
};

}  // namespace chiller::storage

#endif  // CHILLER_STORAGE_BLOCK_ARENA_H_
