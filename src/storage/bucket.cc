#include "storage/bucket.h"

#include <new>
#include <utility>

namespace chiller::storage {

Bucket::Block* Bucket::Allocate(BlockArena* arena, uint32_t cap) {
  void* mem = arena->Allocate(BlockBytes(cap));
  return new (mem) Block{.size = 0, .cap = cap};
}

void Bucket::Free(BlockArena* arena, Block* block) {
  Entry* e = block->entries();
  for (uint32_t i = 0; i < block->size; ++i) e[i].~Entry();
  arena->Free(block, BlockBytes(block->cap));
}

void Bucket::Clear(BlockArena* arena) {
  if (block_ == nullptr) return;
  Free(arena, block_);
  block_ = nullptr;
}

Record* Bucket::Find(Key key) {
  return const_cast<Record*>(std::as_const(*this).Find(key));
}

const Record* Bucket::Find(Key key) const {
  const std::optional<uint32_t> slot = SlotOf(key);
  return slot ? &block_->entries()[*slot].record : nullptr;
}

std::optional<uint32_t> Bucket::SlotOf(Key key) const {
  if (block_ == nullptr) return std::nullopt;
  const Entry* e = block_->entries();
  for (uint32_t i = 0; i < block_->size; ++i) {
    if (e[i].key == key) return i;
  }
  return std::nullopt;
}

bool Bucket::Insert(BlockArena* arena, Key key, Record record) {
  if (Find(key) != nullptr) return false;
  if (block_ == nullptr) {
    block_ = Allocate(arena, 1);
  } else if (block_->size == block_->cap) {
    Block* grown = Allocate(arena, 2 * block_->cap);
    Entry* from = block_->entries();
    Entry* to = grown->entries();
    for (uint32_t i = 0; i < block_->size; ++i) {
      new (&to[i]) Entry(std::move(from[i]));
    }
    grown->size = block_->size;
    Free(arena, block_);
    block_ = grown;
  }
  new (&block_->entries()[block_->size]) Entry{key, std::move(record)};
  ++block_->size;
  return true;
}

bool Bucket::Erase(BlockArena* arena, Key key) {
  if (block_ == nullptr) return false;
  Entry* e = block_->entries();
  const uint32_t last = block_->size - 1;
  for (uint32_t i = 0; i <= last; ++i) {
    if (e[i].key != key) continue;
    if (i != last) e[i] = std::move(e[last]);
    e[last].~Entry();
    if (--block_->size == 0) Clear(arena);
    return true;
  }
  return false;
}

}  // namespace chiller::storage
