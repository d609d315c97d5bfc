#include "sim/sharded_simulator.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/logging.h"

namespace chiller::sim {

namespace {

/// Per-thread execution context. While a thread runs a shard's window it
/// owns that shard of one simulator; otherwise (owner == nullptr here) the
/// coordinating thread uses the simulator's global state instead.
struct Tls {
  const ShardedSimulator* owner = nullptr;
  uint32_t shard = 0;
  SimTime now = 0;
  DomainId domain = kControlDomain;
};

thread_local Tls tls;

/// How long a handoff wait spins before parking: about one window's host
/// time, so a window-to-window handoff never pays a futex round trip, and a
/// thread left waiting longer (the run is over, or between Run calls) stops
/// burning its core.
constexpr std::chrono::microseconds kSpinFor{100};

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Returns the first value of `word` that satisfies `done`, spinning for up
/// to kSpinFor (when `spin`) and then parking on the word. Whoever changes
/// the word so that `done` may start to hold must notify it.
template <typename Done>
uint32_t Await(const std::atomic<uint32_t>& word, bool spin, Done done) {
  uint32_t v = word.load(std::memory_order_acquire);
  if (done(v)) return v;
  if (spin) {
    const auto deadline = std::chrono::steady_clock::now() + kSpinFor;
    for (uint32_t i = 1;; ++i) {
      CpuRelax();
      v = word.load(std::memory_order_acquire);
      if (done(v)) return v;
      if (i % 64 == 0 && std::chrono::steady_clock::now() >= deadline) break;
    }
  }
  for (;;) {
    word.wait(v, std::memory_order_acquire);
    v = word.load(std::memory_order_acquire);
    if (done(v)) return v;
  }
}

}  // namespace

uint32_t ShardedSimulator::EffectiveShards(uint32_t num_shards,
                                           uint32_t num_domains) {
  return std::max(1u, std::min(num_shards, num_domains - 1));
}

ShardedSimulator::ShardedSimulator(uint32_t num_shards, uint32_t num_domains)
    : num_shards_(EffectiveShards(num_shards, num_domains)),
      shards_(num_shards_),
      seq_(num_domains),
      spin_(num_shards_ <= std::thread::hardware_concurrency()) {
  CHILLER_CHECK(num_shards >= 1);
  CHILLER_CHECK(num_domains >= 1);
  for (Shard& s : shards_) s.outbox.resize(num_shards_);
  workers_.reserve(num_shards_ - 1);
  for (uint32_t s = 1; s < num_shards_; ++s) {
    workers_.emplace_back([this, s] { WorkerLoop(s); });
  }
}

ShardedSimulator::~ShardedSimulator() {
  exit_ = true;
  release_.fetch_add(1, std::memory_order_release);
  release_.notify_all();
  for (std::thread& t : workers_) t.join();
}

SimTime ShardedSimulator::now() const {
  if (tls.owner == this) return tls.now;
  return global_now_;
}

DomainId ShardedSimulator::current_domain() const {
  if (tls.owner == this) return tls.domain;
  // The coordinator runs control events and external calls; both are
  // control-plane by definition.
  return kControlDomain;
}

void ShardedSimulator::ScheduleIn(DomainId domain, SimTime when, Task fn) {
  CHILLER_CHECK(domain < seq_.size()) << "unknown domain " << domain;
  const SimTime t_now = now();
  const DomainId origin = current_domain();
  CHILLER_CHECK(when >= t_now)
      << "scheduling into the past: " << when << " < " << t_now;
  CHILLER_DCHECK(lookahead() == 0 || origin == kControlDomain ||
                 domain == kControlDomain || domain == origin ||
                 when >= WindowEnd(t_now))
      << "cross-domain event inside a lookahead window: " << origin << " -> "
      << domain << " at " << when;
  const uint64_t seq = NextSeq(origin);
  if (tls.owner == this) {
    // Inside a shard's window: same-shard events go straight into its
    // queue; anything else waits in a mailbox until the window boundary.
    Shard& self = shards_[tls.shard];
    if (domain == kControlDomain) {
      self.control_outbox.push_back(
          Pending{when, domain, origin, seq, std::move(fn)});
    } else if (ShardOfDomain(domain) == tls.shard) {
      self.queue.Push(when, domain, origin, seq, std::move(fn));
    } else {
      self.outbox[ShardOfDomain(domain)].push_back(
          Pending{when, domain, origin, seq, std::move(fn)});
    }
    return;
  }
  // Coordinator between windows: no shard is running, so destination queues
  // are ours to touch directly.
  if (domain == kControlDomain) {
    control_queue_.Push(when, domain, origin, seq, std::move(fn));
  } else {
    shards_[ShardOfDomain(domain)].queue.Push(when, domain, origin, seq,
                                              std::move(fn));
  }
}

void ShardedSimulator::ScheduleControl(SimTime delay, Task fn) {
  ScheduleIn(kControlDomain, ControlFireTime(delay), std::move(fn));
}

void ShardedSimulator::RunWindow(uint32_t s) {
  Shard& shard = shards_[s];
  while (!shard.queue.empty() && shard.queue.NextTime() < window_end_ &&
         shard.queue.NextTime() <= window_until_) {
    Event e = shard.queue.Pop();
    tls.now = e.time;
    tls.domain = e.domain;
    shard.last_time = e.time;
    ++shard.processed;
    e.fn();
  }
  tls.domain = kControlDomain;
}

void ShardedSimulator::WorkerLoop(uint32_t s) {
  tls.owner = this;
  tls.shard = s;
  const uint32_t workers = num_shards_ - 1;
  uint32_t seen = 0;
  for (;;) {
    seen = Await(release_, spin_, [seen](uint32_t v) { return v != seen; });
    if (exit_) break;
    RunWindow(s);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == workers) {
      arrived_.notify_one();
    }
  }
}

void ShardedSimulator::RunWindowOnAllShards() {
  arrived_.store(0, std::memory_order_relaxed);
  release_.fetch_add(1, std::memory_order_release);
  release_.notify_all();
  // Shard 0 runs here, under the same per-thread context a worker has, so
  // now()/current_domain()/routing behave identically.
  tls.owner = this;
  tls.shard = 0;
  RunWindow(0);
  tls.owner = nullptr;
  const uint32_t workers = num_shards_ - 1;
  Await(arrived_, spin_, [workers](uint32_t v) { return v == workers; });
}

void ShardedSimulator::DrainMailboxes() {
  for (Shard& src : shards_) {
    for (uint32_t d = 0; d < num_shards_; ++d) {
      for (Pending& p : src.outbox[d]) {
        shards_[d].queue.Push(p.when, p.domain, p.origin, p.seq,
                              std::move(p.fn));
      }
      src.outbox[d].clear();
    }
    for (Pending& p : src.control_outbox) {
      control_queue_.Push(p.when, p.domain, p.origin, p.seq, std::move(p.fn));
    }
    src.control_outbox.clear();
  }
}

void ShardedSimulator::Drive(SimTime until, bool run_all) {
  CHILLER_CHECK(num_shards_ == 1 || lookahead() > 0)
      << "multi-shard execution requires a lookahead";
  for (;;) {
    const SimTime tc = control_queue_.NextTime();
    SimTime td = kSimTimeNever;
    for (const Shard& s : shards_) td = std::min(td, s.queue.NextTime());
    const SimTime next = std::min(tc, td);
    if (next == kSimTimeNever) break;
    if (!run_all && next > until) break;
    if (tc <= td) {
      // Control batch: the control domain sorts before data at equal time,
      // and runs only between windows — which this is.
      Event e = control_queue_.Pop();
      global_now_ = e.time;
      ++control_processed_;
      e.fn();
      continue;
    }
    // Data window containing the earliest data event. Idle windows are
    // skipped by construction (k jumps straight to td's window).
    const SimTime la = lookahead();
    window_end_ = la == 0 ? kSimTimeNever : (td / la + 1) * la;
    window_until_ = run_all ? kSimTimeNever : until;
    RunWindowOnAllShards();
    for (const Shard& s : shards_) {
      global_now_ = std::max(global_now_, s.last_time);
    }
    DrainMailboxes();
  }
}

void ShardedSimulator::Run() { Drive(kSimTimeNever, /*run_all=*/true); }

void ShardedSimulator::RunUntil(SimTime until) {
  Drive(until, /*run_all=*/false);
  global_now_ = std::max(global_now_, until);
}

void ShardedSimulator::Clear() {
  for (Shard& s : shards_) {
    s.queue.Clear();
    for (auto& box : s.outbox) box.clear();
    s.control_outbox.clear();
  }
  control_queue_.Clear();
}

uint64_t ShardedSimulator::events_processed() const {
  uint64_t total = control_processed_;
  for (const Shard& s : shards_) total += s.processed;
  return total;
}

bool ShardedSimulator::idle() const {
  if (!control_queue_.empty()) return false;
  for (const Shard& s : shards_) {
    if (!s.queue.empty()) return false;
  }
  return true;
}

}  // namespace chiller::sim
