#include "storage/partition_store.h"

#include <utility>

#include "common/logging.h"

namespace chiller::storage {

PartitionStore::PartitionStore(PartitionId id,
                               const std::vector<TableSpec>& schema)
    : id_(id) {
  size_t max_id = 0;
  for (const auto& spec : schema) max_id = std::max<size_t>(max_id, spec.id);
  tables_.resize(max_id + 1);
  for (const auto& spec : schema) {
    CHILLER_CHECK(tables_[spec.id] == nullptr) << "duplicate table id";
    tables_[spec.id] = std::make_unique<Table>(spec, &arena_);
  }
}

Table* PartitionStore::table(TableId t) {
  CHILLER_CHECK(t < tables_.size() && tables_[t] != nullptr)
      << "unknown table " << t;
  return tables_[t].get();
}

const Table* PartitionStore::table(TableId t) const {
  CHILLER_CHECK(t < tables_.size() && tables_[t] != nullptr)
      << "unknown table " << t;
  return tables_[t].get();
}

Status PartitionStore::TryLock(const RecordId& rid, LockMode mode) {
  Bucket* b = table(rid.table)->BucketFor(rid.key);
  const bool ok = mode == LockMode::kShared ? b->TryLockShared()
                                            : b->TryLockExclusive();
  if (!ok) {
    // Per-conflict diagnostics are hot-path noise; the DEBUG level keeps
    // them gated behind SetMinLogLevel(LogLevel::kDebug).
    CHILLER_LOG(DEBUG) << "lock conflict part=" << id_
                       << " table=" << rid.table << " key=" << rid.key
                       << " mode=" << static_cast<int>(mode)
                       << " word=" << b->lock_word();
    return Status::Aborted("lock conflict");
  }
  ++locks_held_;
  return Status::OK();
}

void PartitionStore::Unlock(const RecordId& rid, LockMode mode,
                            bool modified) {
  Bucket* b = table(rid.table)->BucketFor(rid.key);
  if (mode == LockMode::kShared) {
    b->UnlockShared();
  } else {
    b->UnlockExclusive(modified);
  }
  CHILLER_CHECK(locks_held_ > 0);
  --locks_held_;
}

uint64_t PartitionStore::VersionOf(const RecordId& rid) const {
  return table(rid.table)->BucketFor(rid.key)->version();
}

Record* PartitionStore::Find(const RecordId& rid) {
  return table(rid.table)->Find(rid.key);
}

void PartitionStore::PrefetchBucket(const RecordId& rid) const {
  __builtin_prefetch(table(rid.table)->BucketFor(rid.key), /*rw=*/0,
                     /*locality=*/3);
}

void PartitionStore::PrefetchRecord(const RecordId& rid) const {
  table(rid.table)->BucketFor(rid.key)->PrefetchBlock();
}

std::optional<PartitionStore::ScanPosition> PartitionStore::PositionOf(
    const RecordId& rid) const {
  const Table* t = table(rid.table);
  const size_t bucket = t->BucketIndex(rid.key);
  const std::optional<uint32_t> slot = t->BucketFor(rid.key)->SlotOf(rid.key);
  if (!slot) return std::nullopt;
  return ScanPosition{.table = rid.table, .bucket = bucket, .slot = *slot};
}

Status PartitionStore::Insert(const RecordId& rid, Record record) {
  return table(rid.table)->Insert(rid.key, std::move(record));
}

Status PartitionStore::Erase(const RecordId& rid) {
  return table(rid.table)->Erase(rid.key);
}

StatusOr<Record> PartitionStore::ExtractRecord(const RecordId& rid) {
  Table* t = table(rid.table);
  if (!LockWord::IsFree(t->BucketFor(rid.key)->lock_word())) {
    return Status::FailedPrecondition("bucket of " + rid.ToString() +
                                      " is locked; migration requires a "
                                      "quiesced partition");
  }
  Record* rec = t->Find(rid.key);
  if (rec == nullptr) {
    return Status::NotFound("no record " + rid.ToString() + " to extract");
  }
  Record out = std::move(*rec);
  CHILLER_CHECK(t->Erase(rid.key).ok());
  return out;
}

Status PartitionStore::InstallRecord(const RecordId& rid, Record record) {
  Table* t = table(rid.table);
  if (!LockWord::IsFree(t->BucketFor(rid.key)->lock_word())) {
    return Status::FailedPrecondition("bucket of " + rid.ToString() +
                                      " is locked; migration requires a "
                                      "quiesced partition");
  }
  Status st = t->Insert(rid.key, std::move(record));
  if (!st.ok()) {
    return Status::FailedPrecondition("record " + rid.ToString() +
                                      " already present at partition " +
                                      std::to_string(id_));
  }
  return Status::OK();
}

size_t PartitionStore::num_records() const {
  size_t n = 0;
  for (const auto& t : tables_) {
    if (t != nullptr) n += t->num_records();
  }
  return n;
}

}  // namespace chiller::storage
