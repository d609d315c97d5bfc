// Fixed-layout in-memory record.
#ifndef CHILLER_STORAGE_RECORD_H_
#define CHILLER_STORAGE_RECORD_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>

#include "common/logging.h"

namespace chiller::storage {

/// A record is a fixed number of 64-bit fields plus a declared wire size.
/// All workloads in this repo (TPC-C, Instacart-like, flight booking) encode
/// their columns into int64 fields; `wire_bytes` preserves the real payload
/// size for the network cost model.
///
/// Layout (40 bytes): the two counts, then up to kInlineFields fields stored
/// inline — every TPC-C, flight and instacart table fits. A record with more
/// fields (YCSB has 8) keeps them in one heap array whose pointer takes the
/// inline words' place. Inline words a record does not use are zero, so
/// copies never read indeterminate memory.
class Record {
 public:
  static constexpr size_t kInlineFields = 4;

  Record() = default;
  explicit Record(size_t num_fields, size_t wire_bytes = 0);
  Record(const Record& other);
  Record(Record&& other) noexcept;
  Record& operator=(const Record& other);
  Record& operator=(Record&& other) noexcept;
  ~Record() { Release(); }

  int64_t Get(size_t i) const {
    CHILLER_DCHECK(i < num_fields_);
    return data()[i];
  }
  void Set(size_t i, int64_t v) {
    CHILLER_DCHECK(i < num_fields_);
    data()[i] = v;
  }
  void Add(size_t i, int64_t delta) { Set(i, Get(i) + delta); }

  size_t num_fields() const { return num_fields_; }
  size_t wire_bytes() const { return wire_bytes_; }

  std::span<const int64_t> fields() const { return {data(), num_fields_}; }

  /// Same field values and the same wire size.
  friend bool operator==(const Record& a, const Record& b);

 private:
  union Words {
    int64_t inline_fields[kInlineFields];
    int64_t* heap;
  };

  bool spilled() const { return num_fields_ > kInlineFields; }
  const int64_t* data() const {
    return spilled() ? words_.heap : words_.inline_fields;
  }
  int64_t* data() { return spilled() ? words_.heap : words_.inline_fields; }
  void Release() {
    if (spilled()) delete[] words_.heap;
  }
  /// Leaves a moved-from record empty, as a moved-from vector would be.
  void Clear() {
    num_fields_ = 0;
    wire_bytes_ = 0;
    words_ = Words{};
  }

  uint32_t num_fields_ = 0;
  uint32_t wire_bytes_ = 0;
  Words words_{};
};

inline Record::Record(size_t num_fields, size_t wire_bytes)
    : num_fields_(static_cast<uint32_t>(num_fields)),
      wire_bytes_(static_cast<uint32_t>(wire_bytes == 0 ? num_fields * 8
                                                        : wire_bytes)) {
  CHILLER_DCHECK(num_fields_ == num_fields);
  if (spilled()) words_.heap = new int64_t[num_fields]();
}

inline Record::Record(const Record& other)
    : num_fields_(other.num_fields_), wire_bytes_(other.wire_bytes_) {
  if (spilled()) {
    words_.heap = new int64_t[num_fields_];
    std::copy_n(other.words_.heap, num_fields_, words_.heap);
  } else {
    words_ = other.words_;
  }
}

inline Record::Record(Record&& other) noexcept
    : num_fields_(other.num_fields_),
      wire_bytes_(other.wire_bytes_),
      words_(other.words_) {
  other.Clear();
}

inline Record& Record::operator=(const Record& other) {
  if (this == &other) return *this;
  if (spilled() && num_fields_ == other.num_fields_) {
    // Same shape: reuse the heap array, as vector assignment reuses its
    // capacity.
    std::copy_n(other.words_.heap, num_fields_, words_.heap);
    wire_bytes_ = other.wire_bytes_;
    return *this;
  }
  return *this = Record(other);
}

inline Record& Record::operator=(Record&& other) noexcept {
  if (this == &other) return *this;
  Release();
  num_fields_ = other.num_fields_;
  wire_bytes_ = other.wire_bytes_;
  words_ = other.words_;
  other.Clear();
  return *this;
}

inline bool operator==(const Record& a, const Record& b) {
  return a.wire_bytes_ == b.wire_bytes_ &&
         std::ranges::equal(a.fields(), b.fields());
}

/// Static description of one table.
struct TableSpec {
  std::string name;
  uint16_t id = 0;
  size_t num_fields = 1;
  /// Serialized record size for the network model (0 = 8 * num_fields).
  size_t wire_bytes = 0;
  /// Buckets per partition; keys hash onto buckets, whose embedded lock is
  /// the unit of locking (Section 6).
  size_t buckets_per_partition = 1 << 12;
};

}  // namespace chiller::storage

#endif  // CHILLER_STORAGE_RECORD_H_
