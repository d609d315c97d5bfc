#include "runner/runner.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <optional>
#include <utility>

#include "common/logging.h"

#include "cc/load_model.h"
#include "migrate/adaptive_controller.h"
#include "migrate/migration_plan.h"
#include "migrate/relayout_executor.h"
#include "net/topology.h"
#include "partition/chiller_partitioner.h"
#include "partition/stats_collector.h"

namespace chiller::runner {

namespace {

/// Plan-structure checks shared by Validate: every adaptive plan must
/// sample before it replans and migrate immediately after, so the live
/// layout never disagrees with the physical record placement.
Status ValidatePhases(const std::vector<Phase>& phases) {
  bool sampled = false;
  bool measured = false;
  bool pending_replan = false;
  for (size_t i = 0; i < phases.size(); ++i) {
    const Phase& ph = phases[i];
    if (pending_replan && ph.kind != PhaseKind::kMigrate &&
        ph.kind != PhaseKind::kLiveMigrate) {
      return Status::InvalidArgument(
          "a replan phase must be followed immediately by a migrate or "
          "live-migrate phase (the built layout is not live until records "
          "move)");
    }
    switch (ph.kind) {
      case PhaseKind::kWarmup:
      case PhaseKind::kMeasure:
        if (ph.duration == 0) {
          return Status::InvalidArgument("timed phases must have duration > 0");
        }
        measured |= ph.kind == PhaseKind::kMeasure;
        break;
      case PhaseKind::kSample:
        if (ph.duration == 0) {
          return Status::InvalidArgument("timed phases must have duration > 0");
        }
        if (!std::isfinite(ph.sample_rate) || ph.sample_rate <= 0.0 ||
            ph.sample_rate > 1.0) {
          return Status::InvalidArgument("sample_rate must be in (0, 1]");
        }
        sampled = true;
        break;
      case PhaseKind::kReplan:
        if (!sampled) {
          return Status::InvalidArgument(
              "a replan phase needs an earlier sample phase");
        }
        if (!std::isfinite(ph.hot_threshold)) {
          return Status::InvalidArgument("hot_threshold must be finite");
        }
        pending_replan = true;
        break;
      case PhaseKind::kMigrate:
      case PhaseKind::kLiveMigrate:
        if (!pending_replan) {
          return Status::InvalidArgument(
              "a migrate phase needs an immediately preceding replan phase");
        }
        pending_replan = false;
        break;
    }
  }
  if (pending_replan) {
    return Status::InvalidArgument("a replan phase must not end the plan");
  }
  if (!measured) {
    return Status::InvalidArgument("the phase plan must measure something");
  }
  return Status::OK();
}

/// The run's relayout and controller accounting into the result's report.
/// The sampling and replan fields the phase plan writes directly
/// (hot_records, lookup_entries, timeline) are left alone.
void FillAdaptiveReport(const migrate::AdaptiveControllerReport& rep,
                        AdaptiveReport* a) {
  a->sampled_txns = rep.sampled_txns;
  a->migration = {.moved_records = rep.moved_records,
                  .moved_bytes = rep.moved_bytes,
                  .sim_time = rep.migration_sim_time};
  a->migration_start = rep.first_migration_start;
  a->migration_end = rep.last_migration_end;
  a->migration_window_commits = rep.window_commits;
  a->migration_window_aborts = rep.window_aborts;
  a->buckets_moved = rep.buckets_moved;
  a->controller_epochs = rep.epochs;
  a->controller_migrations = rep.migrations;
  a->controller_settled = rep.settled;
  a->controller_rearms = rep.rearms;
  a->shadow_evals = rep.shadow_evals;
  a->last_drift = rep.last_drift;
  a->peak_streams = rep.peak_streams;
  a->governor_widens = rep.governor_widens;
  a->governor_narrows = rep.governor_narrows;
}

}  // namespace

migrate::AdaptiveControllerOptions ScenarioSpec::MakeAdaptiveControllerOptions()
    const {
  return {.period = controller_period,
          .sample_rate = controller_sample_rate,
          .drift_threshold = controller_drift_threshold,
          .hysteresis_epochs = controller_hysteresis,
          .lock_window_txns = static_cast<double>(concurrency) * partitions(),
          .relayout_buckets = relayout_buckets,
          .migrator = {.batch_records = migrate_batch_records,
                       .streams = migrate_streams},
          .governor = governor,
          .governor_opts = {.min_streams = governor_min_streams,
                            .max_streams = governor_max_streams,
                            .p99_budget = governor_p99_budget,
                            .max_abort_share = governor_max_abort_share},
          .rearm_threshold = rearm_threshold,
          .shadow = shadow,
          .seed = seed};
}

Status ScenarioRunner::Validate(const ScenarioSpec& spec) {
  // Names first: Wire loads the whole workload before it builds the
  // protocol, so an unknown name must fail here.
  if (Status st = Workloads().Check(spec.workload); !st.ok()) return st;
  if (Status st = Protocols().Check(spec.protocol); !st.ok()) return st;
  if (spec.nodes == 0 || spec.engines_per_node == 0) {
    return Status::InvalidArgument("topology must have >= 1 node and engine");
  }
  if (spec.replication_degree == 0) {
    return Status::InvalidArgument(
        "replication_degree counts the primary and must be >= 1");
  }
  if (spec.replication_degree > spec.nodes) {
    return Status::InvalidArgument(
        "replication_degree must be <= nodes (replicas land on distinct "
        "nodes)");
  }
  if (spec.concurrency == 0) {
    return Status::InvalidArgument("concurrency must be >= 1");
  }
  if (spec.shards == 0) {
    return Status::InvalidArgument("shards must be >= 1");
  }
  // One source of truth for load-model validity (also what Wire() builds
  // with), run here so a bad spec fails before any data is loaded.
  Status lm_st = cc::ValidateLoadModelParams(spec.load_model,
                                             spec.MakeLoadModelParams());
  if (!lm_st.ok()) return lm_st;
  // Same single-source rule for the admission scheduler: an unknown
  // scheduler, or a scheduler/load-model mismatch, fails here with an
  // actionable message instead of falling through.
  Status sched_st =
      schedule::ValidateSchedulerParams(spec.scheduler, spec.load_model);
  if (!sched_st.ok()) return sched_st;
  if (spec.relayout_buckets == 0) {
    return Status::InvalidArgument("relayout_buckets must be >= 1");
  }
  if (spec.migrate_batch_records == 0) {
    return Status::InvalidArgument("migrate_batch_records must be >= 1");
  }
  if (spec.migrate_streams == 0) {
    return Status::InvalidArgument("migrate_streams must be >= 1");
  }
  if (spec.governor) {
    if (spec.governor_min_streams == 0) {
      return Status::InvalidArgument("governor_min_streams must be >= 1");
    }
    if (spec.governor_min_streams > spec.governor_max_streams) {
      return Status::InvalidArgument(
          "governor_min_streams must be <= governor_max_streams");
    }
    if (!std::isfinite(spec.governor_max_abort_share) ||
        spec.governor_max_abort_share < 0.0 ||
        spec.governor_max_abort_share > 1.0) {
      return Status::InvalidArgument(
          "governor_max_abort_share must be in [0, 1]");
    }
  }
  if (!std::isfinite(spec.rearm_threshold) || spec.rearm_threshold < 0.0) {
    return Status::InvalidArgument("rearm_threshold must be finite and >= 0");
  }
  if (spec.rearm_threshold > 0.0 && !spec.continuous) {
    return Status::InvalidArgument(
        "rearm_threshold re-arms the continuous controller; set "
        "continuous=true");
  }
  if (spec.shadow && !spec.continuous) {
    return Status::InvalidArgument(
        "shadow mode is the continuous controller's scoring-only mode; set "
        "continuous=true");
  }
  if (spec.shadow && spec.rearm_threshold > 0.0) {
    return Status::InvalidArgument(
        "shadow mode never settles, so there is nothing to re-arm; drop "
        "one of shadow / rearm_threshold");
  }
  if (spec.continuous) {
    if (!spec.phases.empty()) {
      return Status::InvalidArgument(
          "continuous mode drives its own sample/replan/migrate loop; use "
          "the legacy warmup/measure fields, not a phase plan");
    }
    if (spec.controller_period == 0) {
      return Status::InvalidArgument("controller_period must be > 0");
    }
    if (!std::isfinite(spec.controller_sample_rate) ||
        spec.controller_sample_rate <= 0.0 ||
        spec.controller_sample_rate > 1.0) {
      return Status::InvalidArgument(
          "controller_sample_rate must be in (0, 1]");
    }
    if (!std::isfinite(spec.controller_drift_threshold) ||
        spec.controller_drift_threshold < 0.0) {
      return Status::InvalidArgument(
          "controller_drift_threshold must be finite and >= 0");
    }
    if (spec.controller_hysteresis == 0) {
      return Status::InvalidArgument("controller_hysteresis must be >= 1");
    }
  }
  if (spec.phases.empty()) {
    if (spec.measure == 0) {
      return Status::InvalidArgument("measurement window must be > 0");
    }
    return Status::OK();
  }
  return ValidatePhases(spec.phases);
}

StatusOr<ScenarioEnv> ScenarioRunner::Wire(const ScenarioSpec& spec) {
  Status st = Validate(spec);
  if (!st.ok()) return st;

  auto bundle = Workloads().Make(spec.workload, spec);
  if (!bundle.ok()) return bundle.status();

  ScenarioEnv env;
  env.bundle = std::move(bundle).value();

  cc::ClusterConfig cfg;
  cfg.topology = net::Topology{.num_nodes = spec.nodes,
                               .engines_per_node = spec.engines_per_node,
                               .replication_degree = spec.replication_degree};
  cfg.schema = env.bundle->Schema();
  cfg.shards = spec.shards;
  cfg.trace_sample_every = spec.trace_sample_every;
  env.cluster = std::make_unique<cc::Cluster>(cfg);
  env.bundle->Load(env.cluster.get());

  env.repl = std::make_unique<cc::ReplicationManager>(env.cluster.get());
  auto protocol = Protocols().Make(
      spec.protocol, env.cluster.get(), env.bundle->partitioner(),
      env.repl.get());
  if (!protocol.ok()) return protocol.status();
  env.protocol = std::move(protocol).value();

  auto model =
      cc::MakeLoadModel(spec.load_model, spec.MakeLoadModelParams());
  if (!model.ok()) return model.status();

  env.driver = std::make_unique<cc::Driver>(
      env.cluster.get(), env.protocol.get(), env.bundle->source(),
      std::move(model).value(), spec.seed);

  schedule::SchedulerContext sctx;
  sctx.num_engines = env.cluster->num_engines();
  sctx.partitioner = env.bundle->partitioner();
  auto sched = schedule::Schedulers().Make(spec.scheduler, sctx);
  if (!sched.ok()) return sched.status();
  env.scheduler = std::move(sched).value();
  env.driver->set_scheduler(env.scheduler.get());
  return env;
}

StatusOr<ScenarioResult> ScenarioRunner::Run(const ScenarioSpec& spec) {
  const auto wall_start = std::chrono::steady_clock::now();
  auto env = Wire(spec);
  if (!env.ok()) return env.status();

  ScenarioResult result;
  result.spec = spec;

  cc::Driver* driver = env->driver.get();
  sim::Scheduler* sim = env->cluster->sim();
  partition::SwappablePartitioner* live = env->bundle->adaptive_partitioner();
  const std::vector<Phase> plan = spec.EffectivePhases();
  const bool replans =
      spec.continuous ||
      std::any_of(plan.begin(), plan.end(), [](const Phase& ph) {
        return ph.kind == PhaseKind::kReplan;
      });
  if (replans && live == nullptr) {
    return Status::FailedPrecondition(
        "workload '" + spec.workload +
        "' has a frozen layout; replan phases and continuous mode need an "
        "adaptive workload (one whose bundle exposes a swappable "
        "partitioner)");
  }
  const migrate::AdaptiveControllerOptions copts =
      spec.MakeAdaptiveControllerOptions();

  // Timeline recorder: timed work advances in timeline_slice steps and
  // every slice's lifetime-counter deltas are appended (slicing RunUntil
  // is free — the event sequence is identical).
  std::vector<TimelineSlice>* timeline =
      spec.timeline_slice > 0 ? &result.adaptive.timeline : nullptr;
  auto push_slice = [&](SimTime t0, uint64_t c0, uint64_t l0) {
    if (timeline == nullptr) return;
    timeline->push_back(TimelineSlice{
        .start = t0,
        .end = sim->now(),
        .commits = driver->lifetime_commits() - c0,
        .latency_ns_sum = driver->lifetime_latency_ns() - l0});
    // Slice boundaries double as the trace's counter-sampling points: one
    // registry snapshot per slice puts every counter/gauge track on the
    // same timeline as the spans.
    env->cluster->metrics()->Snapshot(sim->now(), env->cluster->trace());
  };
  auto advance_recorded = [&](SimTime duration) {
    if (timeline == nullptr) {
      driver->Advance(duration);
      return;
    }
    SimTime left = duration;
    while (left > 0) {
      const SimTime step = std::min(spec.timeline_slice, left);
      const SimTime t0 = sim->now();
      const uint64_t c0 = driver->lifetime_commits();
      const uint64_t l0 = driver->lifetime_latency_ns();
      driver->Advance(step);
      push_slice(t0, c0, l0);
      left -= step;
    }
  };

  // Section 4.1 loop state, alive across phases: the sampling statistics
  // service, the layout the last replan built but has not yet migrated,
  // and the executor every relayout of the plan runs through (so the
  // report sums them, like the continuous controller's). A continuous
  // spec's measure phase runs under the controller instead, and its
  // report is the run's.
  migrate::AdaptiveControllerReport report;
  std::unique_ptr<partition::StatsCollector> collector;
  std::unique_ptr<partition::LookupPartitioner> pending_layout;
  std::unique_ptr<migrate::RelayoutExecutor> relayout;
  std::unique_ptr<migrate::AdaptiveController> controller;
  auto start_relayout = [&](uint32_t buckets) -> Status {
    if (relayout == nullptr) {
      relayout = std::make_unique<migrate::RelayoutExecutor>(
          driver, env->cluster.get(), env->repl.get(), live, copts.migrator,
          copts.governor ? std::optional(copts.governor_opts) : std::nullopt,
          &report);
    }
    migrate::MigrationPlan plan = migrate::MigrationPlan::Diff(
        env->cluster.get(), *live, *pending_layout, buckets);
    return relayout->Start(std::move(plan), std::move(pending_layout));
  };

  driver->Start();
  SimTime measured = 0;
  bool stats_reset = false;
  for (const Phase& ph : plan) {
    switch (ph.kind) {
      case PhaseKind::kWarmup:
        advance_recorded(ph.duration);
        break;

      case PhaseKind::kSample: {
        if (collector == nullptr) {
          collector = std::make_unique<partition::StatsCollector>(
              ph.sample_rate, spec.seed);
          collector->set_retain_traces(true);
          // Commit observers fire from the committing engine's shard
          // thread; per-engine shards keep the sampling stream (and thus
          // the traces) independent of the simulator's shard count.
          collector->EnableEngineSharding(env->cluster->num_engines());
        } else {
          // A later sample phase accumulates into the same collector (the
          // service's view of the workload only grows) at its own rate.
          collector->set_sample_rate(ph.sample_rate);
        }
        partition::StatsCollector* stats = collector.get();
        driver->SetCommitObserver(
            [stats](const txn::Transaction& t) { stats->Observe(t); });
        advance_recorded(ph.duration);
        driver->SetCommitObserver(nullptr);
        report.sampled_txns = collector->sampled_txns();
        break;
      }

      case PhaseKind::kReplan: {
        partition::ChillerPartitioner::Options popts;
        popts.k = spec.partitions();
        popts.seed = spec.seed;
        popts.hot_threshold = ph.hot_threshold;
        // The collector's per-record frequencies are relative to the
        // cluster-wide commit stream, so the lock window that turns them
        // into arrival rates is everything concurrently in flight
        // cluster-wide. The hot threshold (phase knob) then bounds the
        // hot set to the contended head — Section 4.4's small lookup
        // table — rather than the whole sampled tail.
        popts.lock_window_txns = copts.lock_window_txns;
        auto out =
            partition::ChillerPartitioner::Build(collector->traces(), popts);
        result.adaptive.hot_records = out.hot_records.size();
        result.adaptive.lookup_entries = out.report.lookup_entries;
        pending_layout = std::move(out.partitioner);
        break;
      }

      case PhaseKind::kMigrate: {
        // Stop the world: drain in-flight transactions, move the whole diff
        // as one relayout bucket with nothing else running, then re-arm the
        // load model. The drain is recorded as its own timeline slice so
        // the one that follows is exactly the zero-commit migration pause.
        {
          const SimTime t0 = sim->now();
          const uint64_t c0 = driver->lifetime_commits();
          const uint64_t l0 = driver->lifetime_latency_ns();
          driver->Quiesce();
          push_slice(t0, c0, l0);
        }
        const SimTime t0 = sim->now();
        const uint64_t c0 = driver->lifetime_commits();
        const uint64_t l0 = driver->lifetime_latency_ns();
        Status mst = start_relayout(/*buckets=*/1);
        if (!mst.ok()) return mst;
        sim->Run();
        relayout->Harvest();
        push_slice(t0, c0, l0);
        driver->Resume();
        break;
      }

      case PhaseKind::kLiveMigrate: {
        // Incremental relayout under traffic (src/migrate): keep the driver
        // advancing, one governed epoch per step, while the migrator walks
        // the plan bucket by bucket. No quiesce, no resume.
        Status mst = start_relayout(spec.relayout_buckets);
        if (!mst.ok()) return mst;
        const SimTime step = spec.timeline_slice > 0
                                 ? spec.timeline_slice
                                 : 100 * kMicrosecond;
        uint64_t guard = 0;
        while (relayout->in_flight()) {
          relayout->BeginEpoch();
          advance_recorded(step);
          relayout->CloseEpoch();
          CHILLER_CHECK(++guard < (1u << 20))
              << "live migration did not settle";
        }
        relayout->Harvest();
        break;
      }

      case PhaseKind::kMeasure: {
        if (!stats_reset) {
          driver->ResetStats();
          stats_reset = true;
        }
        driver->set_measuring(true);
        if (!spec.continuous) {
          advance_recorded(ph.duration);
          measured += ph.duration;
        } else {
          // The window runs under the continuous adaptivity controller:
          // sample -> replan -> live-migrate epochs interleaved with
          // traffic, extended past the duration while a relayout is still
          // in flight, so the controller reports the window it measured.
          controller = std::make_unique<migrate::AdaptiveController>(
              driver, env->cluster.get(), env->repl.get(), live, copts);
          auto advanced = controller->RunFor(ph.duration, advance_recorded);
          if (!advanced.ok()) return advanced.status();
          measured += advanced.value();
          result.adaptive.lookup_entries = live->LookupEntries();
        }
        driver->set_measuring(false);
        break;
      }
    }
  }
  driver->set_measured_window(measured);
  FillAdaptiveReport(controller != nullptr ? controller->report() : report,
                     &result.adaptive);
  result.stats = driver->stats();
  result.trace = env->cluster->shared_trace();
  driver->Quiesce();
  result.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - wall_start)
                       .count();
  return result;
}

}  // namespace chiller::runner
