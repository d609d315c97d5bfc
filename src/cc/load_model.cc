#include "cc/load_model.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "cc/cluster.h"
#include "common/logging.h"

namespace chiller::cc {

namespace {
/// Modeled size of a forwarded admission request: the scheduler steers a
/// transaction *descriptor* (procedure id + parameters) across the fabric,
/// not record data. Charged on every cross-engine route.
constexpr size_t kForwardRequestBytes = 64;
}  // namespace

void LoadModel::RetryAfterBackoff(EngineId e, const txn::Transaction& t) {
  Driver* d = driver_;
  const ExecCosts& costs = d->cluster()->costs();
  const uint32_t shift = std::min<uint32_t>(t.attempt, 5);
  const SimTime backoff =
      (costs.retry_backoff_fixed << shift) +
      d->rng(e)->Uniform(costs.retry_backoff_jitter << shift);
  std::shared_ptr<txn::Transaction> retry = d->RebuildForRetry(t);
  // Explicitly target e's own domain: the relaunch belongs to the engine
  // regardless of what context the slot was freed from.
  sim::Scheduler* sim = d->cluster()->sim();
  if (retry->traced) {
    // OnSlotFree runs in e's event context, so the span records from the
    // engine's own domain (the trace determinism rule).
    d->cluster()->trace()->Span(e, sim->now(), sim->now() + backoff,
                                "retry_backoff", retry->logical_id,
                                retry->attempt);
  }
  sim->ScheduleIn(
      sim::DomainOfNode(d->cluster()->topology().NodeOfEngine(e)),
      sim->now() + backoff, [d, e, retry]() { d->Launch(e, retry); });
}

// ---------------------------------------------------------------------------
// ClosedLoop
// ---------------------------------------------------------------------------

ClosedLoop::ClosedLoop(uint32_t slots_per_engine) : slots_(slots_per_engine) {
  CHILLER_CHECK(slots_ >= 1);
}

void ClosedLoop::StartEngine(EngineId e) {
  for (uint32_t s = 0; s < slots_; ++s) driver_->Launch(e, driver_->Draw(e));
}

void ClosedLoop::OnSlotFree(EngineId e, const txn::Transaction& t) {
  if (t.outcome == txn::Outcome::kAbortConflict) {
    RetryAfterBackoff(e, t);
    return;
  }
  driver_->Launch(e, driver_->Draw(e));
}

// ---------------------------------------------------------------------------
// OpenLoop
// ---------------------------------------------------------------------------

OpenLoop::OpenLoop(const LoadModelParams& params) : params_(params) {
  const Status st = ValidateLoadModelParams("open", params_);
  CHILLER_CHECK(st.ok()) << st.ToString();
}

void OpenLoop::OnBind() {
  obs::MetricsRegistry* reg = driver_->cluster()->metrics();
  m_queue_depth_ = reg->GetGauge("admission.queue_depth");
  m_routed_remote_ = reg->GetCounter("sched.routed_remote");
}

void OpenLoop::StartEngine(EngineId e) {
  if (engines_.empty()) {
    engines_.resize(driver_->cluster()->num_engines());
    // The per-engine arrival rate: the cluster-wide offered load split
    // evenly. Computed once so every engine paces identically.
    const double per_engine_tps =
        params_.offered_tps / static_cast<double>(engines_.size());
    mean_interarrival_ = std::max<SimTime>(
        1, static_cast<SimTime>(
               std::llround(static_cast<double>(kSecond) / per_engine_tps)));
  }
  EngineState& s = engines_[e];
  if (!s.initialized) {
    s.initialized = true;
    // SplitMix64-style stream split keeps engine clocks decorrelated while
    // staying a pure function of (seed, engine).
    s.arrivals.Seed(params_.seed + 0x9e3779b97f4a7c15ULL * (e + 1));
  }
  // After a quiesce every in-flight transaction has settled, so all slots
  // are free and no class is held anymore; requests that were already
  // admitted to the queue keep their place (and their admission
  // timestamps) and launch first.
  s.free_slots = params_.slots_per_engine;
  s.inflight_classes.clear();
  TryAdmit(e);
  ScheduleNextArrival(e);
}

void OpenLoop::ScheduleNextArrival(EngineId e) {
  EngineState& s = engines_[e];
  const double u = s.arrivals.NextDouble();
  SimTime gap;
  if (params_.arrival == "poisson") {
    // Exponential interarrival; clamp the (measure-zero) u == 0 draw.
    const double x = -std::log(std::max(u, 1e-300));
    gap = static_cast<SimTime>(
        std::llround(x * static_cast<double>(mean_interarrival_)));
  } else {
    // Uniform in [0, 2*mean): same offered rate, bounded burstiness.
    gap = static_cast<SimTime>(
        std::llround(u * 2.0 * static_cast<double>(mean_interarrival_)));
  }
  // StartEngine arms this clock from control; later ticks re-arm it from
  // the engine's own context. Target the engine's domain explicitly so both
  // paths land the arrival in the same place.
  sim::Scheduler* sim = driver_->cluster()->sim();
  sim->ScheduleIn(
      sim::DomainOfNode(driver_->cluster()->topology().NodeOfEngine(e)),
      sim->now() + std::max<SimTime>(gap, 1), [this, e]() { Arrive(e); });
}

void OpenLoop::Arrive(EngineId e) {
  // A quiesce drains the event queue, which fires pending arrivals early;
  // discard them and leave the clock disarmed — Resume() restarts it.
  if (driver_->quiesced()) return;
  const schedule::Scheduler& sched = driver_->scheduler();
  if (!sched.Classifies()) {
    // Nothing to classify or steer: the draw waits for a slot. Drawing at
    // arrival instead would let queued and shed arrivals consume e's
    // workload RNG ahead of the retry-jitter draws of the work in flight.
    Admit(e, nullptr);
    ScheduleNextArrival(e);
    return;
  }
  // Draw at arrival so the scheduler can classify and steer before
  // admission.
  std::shared_ptr<txn::Transaction> t = driver_->Draw(e);
  t->sched_class = sched.Classify(*t);
  const EngineId target = sched.Route(*t, t->sched_class, e);
  if (t->traced) {
    obs::TraceRecorder* trace = driver_->cluster()->trace();
    const SimTime now = driver_->cluster()->sim()->now();
    trace->Instant(e, now, "sched_classify", t->logical_id, t->attempt,
                   /*reason=*/nullptr, "class", t->sched_class);
    trace->Instant(e, now, "sched_route", t->logical_id, t->attempt,
                   /*reason=*/nullptr, "target", target);
  }
  if (target == e) {
    Admit(e, std::move(t));
  } else {
    // Cross-engine steering goes through the fabric: the admission
    // decision must run in the target engine's event domain (the sharded
    // simulator's ownership rule), and the hop charges its real one-way
    // latency. The shed decision therefore lands on the engine the
    // request was routed *to* — per-engine shed stays consistent with
    // admitted.
    m_routed_remote_->Add(e);
    Cluster* cluster = driver_->cluster();
    cluster->network()->Deliver(
        cluster->topology().NodeOfEngine(e),
        cluster->topology().NodeOfEngine(target), kForwardRequestBytes,
        [this, target, t]() {
          // Mirrors the arrival-discard rule: a request in flight when a
          // quiesce drains the simulator is dropped, not admitted.
          if (driver_->quiesced()) return;
          Admit(target, t);
        });
  }
  ScheduleNextArrival(e);
}

bool OpenLoop::ClassAdmissible(const EngineState& s, uint32_t cls) const {
  return cls == schedule::kColdClass || !s.inflight_classes.contains(cls);
}

void OpenLoop::Admit(EngineId e, std::shared_ptr<txn::Transaction> t) {
  EngineState& s = engines_[e];
  const uint32_t cls = t ? t->sched_class : schedule::kColdClass;
  if (s.free_slots > 0 && ClassAdmissible(s, cls)) {
    driver_->NoteAdmitted(e);
    LaunchInSlot(e, std::move(t), cls, /*waited=*/0);
    return;
  }
  const SimTime now = driver_->cluster()->sim()->now();
  if (s.queue.size() < params_.queue_cap) {
    driver_->NoteAdmitted(e);
    s.queue.push_back({std::move(t), cls, now});
    m_queue_depth_->Add(e, 1);
    return;
  }
  // Queue full: the arrival is shed.
  if (t && t->traced) {
    driver_->cluster()->trace()->Instant(e, now, "shed", t->logical_id,
                                         t->attempt, "shed");
  }
  driver_->NoteShed(e);
}

void OpenLoop::TryAdmit(EngineId e) {
  EngineState& s = engines_[e];
  while (s.free_slots > 0) {
    // First admissible request in queue order: a blocked hot class lets
    // the work behind it through instead of head-of-line blocking, and
    // the scan order is deterministic.
    auto it = std::find_if(s.queue.begin(), s.queue.end(),
                           [&](const Request& r) {
                             return ClassAdmissible(s, r.cls);
                           });
    if (it == s.queue.end()) return;
    Request req = std::move(*it);
    s.queue.erase(it);
    m_queue_depth_->Add(e, -1);
    LaunchInSlot(e, std::move(req.txn), req.cls,
                 driver_->cluster()->sim()->now() - req.enqueued);
  }
}

void OpenLoop::LaunchInSlot(EngineId e, std::shared_ptr<txn::Transaction> t,
                            uint32_t cls, SimTime waited) {
  EngineState& s = engines_[e];
  --s.free_slots;
  if (cls != schedule::kColdClass) ++s.inflight_classes[cls];
  if (t == nullptr) t = driver_->Draw(e);  // the deferred draw
  t->admission_delay = waited;
  driver_->Launch(e, std::move(t));
}

void OpenLoop::OnSlotFree(EngineId e, const txn::Transaction& t) {
  if (t.outcome == txn::Outcome::kAbortConflict) {
    // The retried request keeps its slot and its conflict class: admitted
    // work finishes before queued work starts, so a conflict storm
    // lengthens the queue instead of multiplying the in-flight population.
    RetryAfterBackoff(e, t);
    return;
  }
  driver_->NoteQueueDelay(e, t.admission_delay);
  EngineState& s = engines_[e];
  ++s.free_slots;
  if (t.sched_class != schedule::kColdClass) {
    auto it = s.inflight_classes.find(t.sched_class);
    if (it != s.inflight_classes.end() && --it->second == 0) {
      s.inflight_classes.erase(it);
    }
  }
  TryAdmit(e);
}

// ---------------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------------

Status ValidateLoadModelParams(const std::string& name,
                               const LoadModelParams& params) {
  if (params.slots_per_engine == 0) {
    return Status::InvalidArgument("load model needs slots_per_engine >= 1");
  }
  if (name == "closed") return Status::OK();
  if (name == "open") {
    if (!std::isfinite(params.offered_tps) || params.offered_tps <= 0.0) {
      return Status::InvalidArgument(
          "open load model needs a finite offered_tps > 0 (cluster-wide "
          "offered load, txns/sec)");
    }
    if (params.queue_cap == 0) {
      return Status::InvalidArgument(
          "open load model needs queue_cap >= 1 (bounded admission queue)");
    }
    if (params.arrival != "poisson" && params.arrival != "uniform") {
      return Status::InvalidArgument("unknown arrival process '" +
                                     params.arrival +
                                     "' (known: poisson, uniform)");
    }
    return Status::OK();
  }
  return Status::InvalidArgument("unknown load model '" + name +
                                 "' (known: closed, open)");
}

StatusOr<std::unique_ptr<LoadModel>> MakeLoadModel(
    const std::string& name, const LoadModelParams& params) {
  Status st = ValidateLoadModelParams(name, params);
  if (!st.ok()) return st;
  if (name == "closed") {
    return std::unique_ptr<LoadModel>(
        std::make_unique<ClosedLoop>(params.slots_per_engine));
  }
  return std::unique_ptr<LoadModel>(std::make_unique<OpenLoop>(params));
}

}  // namespace chiller::cc
