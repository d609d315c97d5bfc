#include "cc/exec_common.h"

#include <algorithm>
#include <iterator>
#include <memory>
#include <ranges>
#include <utility>

#include "common/logging.h"
#include "net/rdma.h"

namespace chiller::cc::exec {

namespace {

using storage::LockMode;
using txn::Access;
using txn::OpType;
using txn::Operation;
using txn::Outcome;
using txn::Transaction;

// Wire-size estimates for the latency model.
constexpr size_t kLockReadReq = 48;
constexpr size_t kReadReq = 32;
constexpr size_t kLockRespBase = 16;
constexpr size_t kImageBytes = 128;
constexpr size_t kWriteUnlockRespBase = 16;

/// Finds an earlier access of `t` that holds the lock on the same record.
int FindHolder(const Transaction& t, size_t i) {
  const Access& acc = t.accesses[i];
  for (size_t j = 0; j < i; ++j) {
    const Access& prev = t.accesses[j];
    if (prev.lock_held && prev.key_resolved && prev.rid == acc.rid) {
      return static_cast<int>(j);
    }
  }
  return -1;
}

/// Finds an earlier lock-holding access whose key lives in the same bucket
/// as op `i`'s (different key, same lock granule). Without this, a hash
/// collision inside one transaction self-deadlocks under NO_WAIT and the
/// deterministic retry loops forever.
int FindBucketHolder(storage::PartitionStore* store, const Transaction& t,
                     size_t i) {
  const Access& acc = t.accesses[i];
  storage::Table* table = store->table(acc.rid.table);
  const size_t bucket = table->BucketIndex(acc.rid.key);
  for (size_t j = 0; j < i; ++j) {
    const Access& prev = t.accesses[j];
    if (prev.lock_held && prev.key_resolved &&
        prev.partition == acc.partition && prev.rid.table == acc.rid.table &&
        table->BucketIndex(prev.rid.key) == bucket) {
      return static_cast<int>(j);
    }
  }
  return -1;
}

/// Runs on_read / on_apply for op `i` against the holder's buffered copy.
void RunClosures(Transaction* t, size_t i, bool apply_inline) {
  const Operation& op = t->ops[i];
  Access& acc = t->accesses[i];
  Access& holder =
      acc.alias_of >= 0 ? t->accesses[static_cast<size_t>(acc.alias_of)] : acc;
  if (op.type == OpType::kInsert) {
    holder.local_copy = op.make_record(t->ctx);
    holder.wrote = true;
    acc.applied = true;
  } else {
    CHILLER_CHECK(!op.on_read || holder.local_copy.num_fields() > 0)
        << "op " << i << " table " << op.table << " key " << acc.rid.key
        << " alias " << acc.alias_of << " reads empty record image";
    if (op.on_read) op.on_read(t->ctx, holder.local_copy);
    if (op.type == OpType::kUpdate && apply_inline) {
      if (op.on_apply) op.on_apply(t->ctx, &holder.local_copy);
      holder.wrote = true;
      acc.applied = true;
    } else if (op.type == OpType::kErase) {
      holder.wrote = true;
      acc.applied = true;
    }
  }
  acc.fetched = true;
}

/// Applies the pending deferred write of op `i` (Chiller outer phase 2).
/// Any write kind can be deferred: under layouts where outer writes
/// v-depend on inner results (common once online relayout rehomes
/// records), inserts rebuild their record now that those results are in
/// the context, and erases just confirm their buffered tombstone.
void ApplyDeferredClosure(Transaction* t, size_t i) {
  const Operation& op = t->ops[i];
  Access& acc = t->accesses[i];
  Access& holder =
      acc.alias_of >= 0 ? t->accesses[static_cast<size_t>(acc.alias_of)] : acc;
  if (op.type == OpType::kInsert) {
    holder.local_copy = op.make_record(t->ctx);
  } else if (op.type != OpType::kErase) {
    CHILLER_CHECK(op.type == OpType::kUpdate);
    if (op.on_apply) op.on_apply(t->ctx, &holder.local_copy);
  }
  holder.wrote = true;
  acc.applied = true;
}

storage::PartitionStore* StoreOf(const Deps& d, PartitionId p) {
  return d.cluster->primary(p);
}

/// Marks op `i`'s record absent: its skip group dies and the access counts
/// as fetched with nothing buffered. Only may_be_missing ops may miss.
void MarkMissing(Transaction* t, size_t i) {
  const Operation& op = t->ops[i];
  Access& acc = t->accesses[i];
  CHILLER_CHECK(op.may_be_missing)
      << "op " << i << ": missing record " << acc.rid.ToString();
  if (op.skip_group >= 0) t->dead_groups.insert(op.skip_group);
  acc.missing = true;
  acc.fetched = true;
}

/// Store-side live-migration gate, run before any lock/fetch attempt on op
/// `i`: the access must abort its attempt (a) while the record's relayout
/// bucket is in flight (the move would race the lock), or (b) when a
/// completed per-bucket flip re-homed the record between key resolution
/// and this access landing (routing is stale; a retry re-resolves against
/// the flipped layout). ever_active() gates the whole check off for the
/// common case of a cluster that never live-migrates, so legacy runs stay
/// byte-identical and pay nothing.
bool MigrationBlocked(const Deps& d, Transaction* t, size_t i) {
  const migrate::BucketLockTable& locks = *d.cluster->bucket_locks();
  if (!locks.ever_active()) return false;
  const Access& acc = t->accesses[i];
  if (locks.IsMigrating(acc.rid)) {
    t->blocked_by_migration = true;
    return true;
  }
  if (locks.HasFrozenStorageBuckets()) {
    // Drain escalation (see BucketLockTable): a stubborn batch froze the
    // storage buckets it needs, which also blocks colliding keys from
    // *other* relayout buckets.
    storage::Table* table =
        d.cluster->primary(acc.partition)->table(acc.rid.table);
    if (locks.IsStorageBucketFrozen({acc.partition, acc.rid.table,
                                     table->BucketIndex(acc.rid.key)})) {
      t->blocked_by_migration = true;
      return true;
    }
  }
  if (!t->ops[i].access_local_replica &&
      d.partitioner->PartitionOf(acc.rid) != acc.partition) {
    t->blocked_by_migration = true;
    return true;
  }
  return false;
}

// ---- Store steps: each runs where op `i`'s record lives (see AtStore) ----

/// A store step: acts on the partition store of op `i`'s record and
/// returns its verdict.
using StoreStep = bool (*)(const Deps& d, Transaction* t, size_t i);

/// Copies op `i`'s record image into its buffered copy, or marks the
/// access missing. An insert reads nothing.
void FetchAtStore(storage::PartitionStore* store, Transaction* t, size_t i) {
  if (t->ops[i].type == OpType::kInsert) return;
  Access& acc = t->accesses[i];
  storage::Record* rec = store->Find(acc.rid);
  if (rec == nullptr) {
    MarkMissing(t, i);
  } else {
    acc.local_copy = *rec;
  }
}

/// Takes op `i`'s bucket lock in `mode`, or piggybacks on the earlier
/// access `bucket_holder` of this transaction that already holds it.
/// False on a NO_WAIT conflict.
bool LockOrPiggyback(storage::PartitionStore* store, Transaction* t, size_t i,
                     int bucket_holder, LockMode mode) {
  Access& acc = t->accesses[i];
  if (bucket_holder >= 0) {
    acc.bucket_piggyback = true;
    return true;
  }
  if (!store->TryLock(acc.rid, mode).ok()) return false;
  acc.lock_held = true;
  return true;
}

bool LockAndFetchAtStore(const Deps& d, Transaction* t, size_t i) {
  if (MigrationBlocked(d, t, i)) return false;
  const Operation& op = t->ops[i];
  storage::PartitionStore* store = StoreOf(d, t->accesses[i].partition);
  const int bucket_holder = FindBucketHolder(store, *t, i);
  CHILLER_CHECK(bucket_holder < 0 || !op.IsWrite() ||
                t->ops[static_cast<size_t>(bucket_holder)].mode ==
                    LockMode::kExclusive)
      << "bucket lock upgrade within a transaction";
  if (!LockOrPiggyback(store, t, i, bucket_holder, op.mode)) return false;
  FetchAtStore(store, t, i);
  return true;
}

bool FetchVersionedAtStore(const Deps& d, Transaction* t, size_t i) {
  // Lockless OCC reads must still respect the migration gate: the caller
  // (occ.cc) aborts the attempt when the flag is set.
  if (MigrationBlocked(d, t, i)) return false;
  Access& acc = t->accesses[i];
  storage::PartitionStore* store = StoreOf(d, acc.partition);
  acc.observed_version = store->VersionOf(acc.rid);
  FetchAtStore(store, t, i);
  return true;
}

bool ValidateLockWriteAtStore(const Deps& d, Transaction* t, size_t i) {
  if (MigrationBlocked(d, t, i)) return false;
  const Access& acc = t->accesses[i];
  storage::PartitionStore* store = StoreOf(d, acc.partition);
  if (store->VersionOf(acc.rid) != acc.observed_version) return false;
  // A bucket validation-locked by an earlier write of this transaction is
  // piggybacked: the version check above suffices.
  return LockOrPiggyback(store, t, i, FindBucketHolder(store, *t, i),
                         LockMode::kExclusive);
}

bool ValidateReadAtStore(const Deps& d, Transaction* t, size_t i) {
  if (MigrationBlocked(d, t, i)) return false;
  const Access& acc = t->accesses[i];
  storage::PartitionStore* store = StoreOf(d, acc.partition);
  // Version must match and no concurrent writer may hold the bucket — our
  // own validation lock on a colliding key does not count.
  storage::Table* table = store->table(acc.rid.table);
  const uint64_t w = table->BucketFor(acc.rid.key)->lock_word();
  if (storage::LockWord::Version(w) != acc.observed_version) return false;
  if (!storage::LockWord::IsExclusive(w)) return true;
  return FindBucketHolder(store, *t, i) >= 0;
}

/// Runs `step` against the store of op `i`'s record, then `finish(verdict)`
/// on `eng`. On eng's own partition both run in one op_local slice of its
/// CPU. Otherwise `step` is the remote_op of one one-sided RDMA verb
/// (`req_bytes` out, `resp_bytes` back; the target's NIC acts, not its
/// engine), and `finish` runs in an op_logic slice once the response lands.
/// A remote step writes the access as the verb's response would: the
/// initiator reads nothing of it before `finish`. The bucket's line starts
/// loading now, a slice or a hop before the step probes it.
void AtStore(const Deps& d, Transaction* t, size_t i, Engine* eng,
             size_t req_bytes, size_t resp_bytes, StoreStep step,
             sim::Fn<void(bool)> finish) {
  const PartitionId p = t->accesses[i].partition;
  StoreOf(d, p)->PrefetchBucket(t->accesses[i].rid);
  if (p == eng->id()) {
    eng->cpu()->Submit(d.cluster->costs().op_local,
                       [d, t, i, step, finish = std::move(finish)]() mutable {
                         t->accesses[i].store_ok = step(d, t, i);
                         finish(t->accesses[i].store_ok);
                       });
    return;
  }
  const NodeId src = d.cluster->topology().NodeOfEngine(eng->id());
  const NodeId dst = d.cluster->topology().NodeOfPartition(p);
  d.cluster->rdma()->OneSided(
      src, dst, req_bytes, resp_bytes,
      /*remote_op=*/
      [d, t, i, step]() { t->accesses[i].store_ok = step(d, t, i); },
      /*completion=*/
      [d, t, i, eng, finish = std::move(finish)]() mutable {
        eng->cpu()->Submit(d.cluster->costs().op_logic,
                           [t, i, finish = std::move(finish)]() mutable {
                             finish(t->accesses[i].store_ok);
                           });
      },
      eng->cpu());
}

/// The initiator's half of a fetch: runs op `i`'s closures on the fetched
/// image when the store step succeeded and found a record.
void FinishFetch(Transaction* t, size_t i, bool apply_inline, bool ok) {
  if (ok && !t->accesses[i].missing) RunClosures(t, i, apply_inline);
}

/// Makes op `i` an alias of the earlier access `holder` on the same record:
/// a miss if the holder missed, else the closures run on its buffered copy.
void AliasTo(Transaction* t, size_t i, int holder, bool apply_inline) {
  t->accesses[i].alias_of = holder;
  if (t->accesses[static_cast<size_t>(holder)].missing) {
    MarkMissing(t, i);
  } else {
    RunClosures(t, i, apply_inline);
  }
}

/// Whether a commit or abort must visit the access (exec_common.h, "Held
/// set").
bool IsHeld(const Access& acc) {
  return acc.lock_held || acc.bucket_piggyback;
}

/// The held accesses among `ops` (any range of op indices), in `ops` order,
/// in a vector sized exactly.
template <typename Range>
std::vector<size_t> HeldAmong(const Transaction& t, const Range& ops) {
  auto held_at = [&t](auto i) {
    return IsHeld(t.accesses[static_cast<size_t>(i)]);
  };
  std::vector<size_t> held;
  held.reserve(static_cast<size_t>(std::ranges::count_if(ops, held_at)));
  for (auto i : ops) {
    if (held_at(i)) held.push_back(static_cast<size_t>(i));
  }
  return held;
}

/// The store half of commit (`apply`) or abort for one held access: writes
/// its buffered image back when applying a write, then releases the lock it
/// holds — a piggybacked access holds none; its holder unlocks later. Once
/// written back, a piggybacked access is no longer held.
void FinishAtStore(const Deps& d, Transaction* t, size_t i, bool apply) {
  const Operation& op = t->ops[i];
  Access& acc = t->accesses[i];
  storage::PartitionStore* store = StoreOf(d, acc.partition);
  const bool write = apply && acc.wrote;
  if (write) {
    if (op.type == OpType::kInsert) {
      CHILLER_CHECK(store->Insert(acc.rid, acc.local_copy).ok())
          << "insert conflict on " << acc.rid.ToString();
    } else if (op.type == OpType::kErase) {
      CHILLER_CHECK(store->Erase(acc.rid).ok());
    } else {
      storage::Record* rec = store->Find(acc.rid);
      CHILLER_CHECK(rec != nullptr);
      *rec = acc.local_copy;
    }
    acc.bucket_piggyback = false;
  }
  if (acc.lock_held) {
    // A write always took the exclusive mode; otherwise release the mode
    // the op took.
    store->Unlock(acc.rid, write ? LockMode::kExclusive : op.mode,
                  /*modified=*/write);
    acc.lock_held = false;
  }
}

/// Shared fan-in: apply-or-release every index, local ones batched into one
/// CPU slice, remote ones as one one-sided WRITE each; cb when all settle.
/// A remote bucket starts loading when its WRITE is posted; the local slice
/// loads every bucket, then every block, before it touches any.
void FinishLocks(const Deps& d, Transaction* t,
                 const std::vector<size_t>& indices, Engine* eng, bool apply,
                 sim::Task cb) {
  // A piggybacked access holds no lock of its own; only a committed write
  // of it needs applying.
  auto visits = [t, apply](size_t i) {
    const Access& acc = t->accesses[i];
    CHILLER_CHECK(acc.bucket_piggyback || acc.lock_held)
        << "op " << i << " does not hold its lock";
    return !acc.bucket_piggyback || (apply && acc.wrote);
  };
  auto is_local = [t, eng](size_t i) {
    return t->accesses[i].partition == eng->id();
  };
  CHILLER_DCHECK(std::ranges::is_sorted(indices));
  size_t num_local = 0;
  size_t num_remote = 0;
  for (size_t i : indices) {
    if (visits(i)) ++(is_local(i) ? num_local : num_remote);
  }
  const size_t arrivals = (num_local == 0 ? 0 : 1) + num_remote;
  if (arrivals == 0) {
    cb();
    return;
  }
  struct Join {
    size_t pending;
    sim::Task cb;
  };
  auto join = std::make_shared<Join>(Join{arrivals, std::move(cb)});
  auto arrive = [join]() {
    CHILLER_CHECK(join->pending > 0);
    if (--join->pending == 0) join->cb();
  };

  // Descending index order: a piggybacked write (which always has a higher
  // index than its bucket's lock holder) must land before the holder's
  // unlock — both locally and on the FIFO queue pair to the remote node.
  // `indices` is ascending, so walking it backwards gives that order.
  const auto descending = std::views::reverse(indices);
  const ExecCosts& costs = d.cluster->costs();
  if (num_local > 0) {
    std::vector<size_t> local;
    local.reserve(num_local);
    std::ranges::copy_if(descending, std::back_inserter(local),
                         [&](size_t i) { return visits(i) && is_local(i); });
    eng->cpu()->Submit(costs.op_commit * num_local,
                       [d, t, local = std::move(local), apply, arrive]() {
                         storage::PartitionStore* store =
                             StoreOf(d, t->accesses[local[0]].partition);
                         for (size_t i : local) {
                           store->PrefetchBucket(t->accesses[i].rid);
                         }
                         for (size_t i : local) {
                           store->PrefetchRecord(t->accesses[i].rid);
                         }
                         for (size_t i : local) FinishAtStore(d, t, i, apply);
                         arrive();
                       });
  }
  const NodeId src = d.cluster->topology().NodeOfEngine(eng->id());
  for (size_t i : descending) {
    if (is_local(i) || !visits(i)) continue;
    Access& acc = t->accesses[i];
    const NodeId dst = d.cluster->topology().NodeOfPartition(acc.partition);
    const size_t req =
        kReadReq + (apply && acc.wrote ? acc.local_copy.wire_bytes() : 0);
    StoreOf(d, acc.partition)->PrefetchBucket(acc.rid);
    d.cluster->rdma()->OneSided(
        src, dst, req, kWriteUnlockRespBase,
        [d, t, i, apply]() { FinishAtStore(d, t, i, apply); },
        [arrive]() { arrive(); }, eng->cpu());
  }
}

/// End of attempt: stamps the outcome and end time, then runs `done`.
void End(const Deps& d, Transaction* t, Outcome outcome, sim::Task done) {
  t->outcome = outcome;
  t->end_time = d.cluster->sim()->now();
  done();
}

}  // namespace

PartitionId ResolvePartition(const Deps& d, const Transaction& t, size_t i) {
  if (t.ops[i].access_local_replica) {
    CHILLER_CHECK(!t.ops[i].IsWrite())
        << "replicated tables are read-only (op " << i << ")";
    return t.home;
  }
  return d.partitioner->PartitionOf(t.accesses[i].rid);
}

OpStep Prologue(const Deps& d, Transaction* t, size_t i,
                Placement placement) {
  // Conditional groups: a missing guard record disables later ops.
  if (t->IsSkipped(i)) return OpStep::kSkip;
  // Value constraints run at their program position, after their
  // dependencies' reads.
  const Operation& op = t->ops[i];
  if (op.guard && !op.guard(t->ctx)) return OpStep::kUserAbort;
  Access& acc = t->accesses[i];
  const bool late = !acc.key_resolved;
  if (late) {
    CHILLER_CHECK(t->KeyReady(i)) << "pk-dep not satisfied for op " << i;
    t->ResolveKey(i);
  }
  if (late || placement == Placement::kEveryOp) {
    acc.partition = ResolvePartition(d, *t, i);
  }
  return OpStep::kAccess;
}

void LockAndFetch(const Deps& d, Transaction* t, size_t i, Engine* eng,
                  bool apply_inline, sim::Fn<void(bool)> cb) {
  const Operation& op = t->ops[i];
  const Access& acc = t->accesses[i];
  CHILLER_CHECK(acc.key_resolved && acc.partition != kInvalidPartition);

  // Repeated access to a record this transaction already locked.
  const int holder = FindHolder(*t, i);
  if (holder >= 0) {
    const Access& held = t->accesses[static_cast<size_t>(holder)];
    if (!held.missing && (op.IsWrite() || op.mode == LockMode::kExclusive)) {
      CHILLER_CHECK(t->ops[static_cast<size_t>(holder)].mode ==
                    LockMode::kExclusive)
          << "lock upgrade not supported: first access must take the "
             "strongest mode (Figure 4 read_with_wl)";
    }
    AliasTo(t, i, holder, apply_inline);
    cb(true);
    return;
  }

  // A remote access is a one-sided CAS on the bucket lock word + READ of the
  // record, modeled as a single combined round trip (doorbell batching).
  const size_t resp_bytes =
      kLockRespBase + (op.type == OpType::kInsert ? 0 : kImageBytes);
  AtStore(d, t, i, eng, kLockReadReq, resp_bytes, &LockAndFetchAtStore,
          [t, i, apply_inline, cb = std::move(cb)](bool ok) mutable {
            FinishFetch(t, i, apply_inline, ok);
            cb(ok);
          });
}

void FetchVersioned(const Deps& d, Transaction* t, size_t i, Engine* eng,
                    sim::Task cb) {
  const Access& acc = t->accesses[i];
  CHILLER_CHECK(acc.key_resolved && acc.partition != kInvalidPartition);

  // OCC has no locks during execution; alias on a prior fetch of the same
  // record for read-own-writes.
  for (size_t j = 0; j < i; ++j) {
    const Access& prev = t->accesses[j];
    if (prev.fetched && prev.alias_of < 0 && prev.key_resolved &&
        prev.rid == acc.rid) {
      AliasTo(t, i, static_cast<int>(j), /*apply_inline=*/true);
      cb();
      return;
    }
  }

  AtStore(d, t, i, eng, kReadReq, kLockRespBase + kImageBytes,
          &FetchVersionedAtStore,
          [t, i, cb = std::move(cb)](bool ok) mutable {
            FinishFetch(t, i, /*apply_inline=*/true, ok);
            cb();
          });
}

void ValidateLockWrite(const Deps& d, Transaction* t, size_t i, Engine* eng,
                       sim::Fn<void(bool)> cb) {
  CHILLER_CHECK(t->accesses[i].alias_of < 0);
  AtStore(d, t, i, eng, kLockReadReq, kLockRespBase,
          &ValidateLockWriteAtStore, std::move(cb));
}

void ValidateRead(const Deps& d, Transaction* t, size_t i, Engine* eng,
                  sim::Fn<void(bool)> cb) {
  CHILLER_CHECK(t->accesses[i].alias_of < 0);
  AtStore(d, t, i, eng, kReadReq, kLockRespBase, &ValidateReadAtStore,
          std::move(cb));
}

std::vector<size_t> HeldIndices(const Transaction& t) {
  return HeldAmong(t, std::views::iota(size_t{0}, t.accesses.size()));
}

std::vector<size_t> HeldIndices(const Transaction& t,
                                const std::vector<int>& ops) {
  return HeldAmong(t, ops);
}

void ApplyAndUnlock(const Deps& d, Transaction* t,
                    const std::vector<size_t>& indices, Engine* eng,
                    sim::Task cb) {
  FinishLocks(d, t, indices, eng, /*apply=*/true, std::move(cb));
}

void Release(const Deps& d, Transaction* t, const std::vector<size_t>& indices,
             Engine* eng, sim::Task cb) {
  FinishLocks(d, t, indices, eng, /*apply=*/false, std::move(cb));
}

void Commit(const Deps& d, ReplicationManager* repl,
            const std::shared_ptr<Transaction>& t, Engine* eng,
            bool trace_2pc, sim::Task done) {
  const SimTime start = d.cluster->sim()->now();
  const bool traced = trace_2pc && t->traced;
  std::vector<size_t> held = HeldIndices(*t);
  WritesByPartition writes = CollectWrites(*t, held);
  // Replicate before anything becomes visible ("changes to the replicas
  // have to be applied before committing", Section 5).
  sim::Task apply = [d, t, eng, traced, start, held = std::move(held),
                     done = std::move(done)]() mutable {
    ApplyAndUnlock(d, t.get(), held, eng,
                   [d, t, eng, traced, start,
                    done = std::move(done)]() mutable {
                     if (traced) {
                       // Lock hold time across the replication round trips
                       // — the paper's Figure 2 quantity.
                       d.cluster->trace()->Span(
                           eng->id(), start, d.cluster->sim()->now(),
                           "commit_phase", t->logical_id, t->attempt);
                     }
                     End(d, t.get(), Outcome::kCommitted, std::move(done));
                   });
  };
  if (writes.empty()) {
    apply();
    return;
  }
  struct Join {
    size_t pending;
    sim::Task apply;
  };
  auto join = std::make_shared<Join>(Join{writes.size(), std::move(apply)});
  for (auto& [p, updates] : writes) {
    if (traced) {
      // The 2PC fan-out: one replication round per written partition, all
      // in flight before the apply phase may start.
      d.cluster->trace()->Instant(eng->id(), start, "2pc_replicate",
                                  t->logical_id, t->attempt,
                                  /*reason=*/nullptr, "partition", p);
    }
    repl->Replicate(eng->id(), p, std::move(updates), eng->id(), [join]() {
      if (--join->pending == 0) join->apply();
    });
  }
}

void Abort(const Deps& d, const std::shared_ptr<Transaction>& t, Engine* eng,
           Outcome outcome, sim::Task done) {
  CHILLER_CHECK(outcome != Outcome::kCommitted);
  Release(d, t.get(), HeldIndices(*t), eng,
          [d, t, outcome, done = std::move(done)]() mutable {
            End(d, t.get(), outcome, std::move(done));
          });
}

WritesByPartition CollectWrites(const Transaction& t,
                                const std::vector<size_t>& indices) {
  WritesByPartition by_partition;
  for (size_t i : indices) {
    const Access& acc = t.accesses[i];
    if (!acc.wrote) continue;
    ReplUpdate u;
    u.rid = acc.rid;
    if (t.ops[i].type == OpType::kErase) {
      u.kind = ReplUpdate::Kind::kErase;
    } else {
      u.kind = ReplUpdate::Kind::kPut;
      u.image = acc.local_copy;
    }
    auto it = std::find_if(by_partition.begin(), by_partition.end(),
                           [&](const auto& e) { return e.first == acc.partition; });
    if (it == by_partition.end()) {
      by_partition.emplace_back(acc.partition, std::vector<ReplUpdate>{});
      it = by_partition.end() - 1;
    }
    it->second.push_back(std::move(u));
  }
  std::sort(by_partition.begin(), by_partition.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return by_partition;
}

bool IsDistributed(const txn::Transaction& t) {
  PartitionId first = kInvalidPartition;
  for (const Access& acc : t.accesses) {
    if (!acc.key_resolved || acc.partition == kInvalidPartition) continue;
    if (first == kInvalidPartition) {
      first = acc.partition;
    } else if (acc.partition != first) {
      return true;
    }
  }
  return false;
}

/// Applies Chiller's deferred outer-phase-2 closures (exposed for the
/// two-region runner; costs charged by the caller).
void ApplyDeferred(txn::Transaction* t, const std::vector<int>& deferred) {
  for (int i : deferred) ApplyDeferredClosure(t, static_cast<size_t>(i));
}

}  // namespace chiller::cc::exec
