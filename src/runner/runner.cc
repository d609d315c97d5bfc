#include "runner/runner.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <utility>

#include "common/logging.h"

#include "cc/load_model.h"
#include "cc/migration.h"
#include "migrate/adaptive_controller.h"
#include "migrate/live_migrator.h"
#include "migrate/migration_governor.h"
#include "migrate/migration_plan.h"
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
        if (ph.sample_rate <= 0.0 || ph.sample_rate > 1.0) {
          return Status::InvalidArgument("sample_rate must be in (0, 1]");
        }
        sampled = true;
        break;
      case PhaseKind::kReplan:
        if (!sampled) {
          return Status::InvalidArgument(
              "a replan phase needs an earlier sample phase");
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

}  // namespace

Status ScenarioRunner::Validate(const ScenarioSpec& spec) {
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
  // scheduler or shed policy, or a scheduler/load-model mismatch, fails
  // here with an actionable message instead of falling through.
  Status sched_st = schedule::ValidateSchedulerParams(
      spec.scheduler, spec.shed_policy, spec.load_model);
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
    if (spec.governor_max_abort_share < 0.0 ||
        spec.governor_max_abort_share > 1.0) {
      return Status::InvalidArgument(
          "governor_max_abort_share must be in [0, 1]");
    }
  }
  if (spec.rearm_threshold < 0.0) {
    return Status::InvalidArgument("rearm_threshold must be >= 0");
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
    if (spec.controller_sample_rate <= 0.0 ||
        spec.controller_sample_rate > 1.0) {
      return Status::InvalidArgument(
          "controller_sample_rate must be in (0, 1]");
    }
    if (spec.controller_drift_threshold < 0.0) {
      return Status::InvalidArgument(
          "controller_drift_threshold must be >= 0");
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

  auto bundle = WorkloadRegistry::Global().Make(spec);
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
  auto protocol = ProtocolRegistry::Global().Make(
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

  // The admission scheduler. Passthrough policies (fifo) are built for
  // validation parity but never installed: with a null scheduler the load
  // models keep their legacy code paths, byte for byte.
  schedule::SchedulerContext sctx;
  sctx.num_engines = env.cluster->num_engines();
  sctx.classes = spec.sched_classes;
  sctx.partitioner = env.bundle->partitioner();
  sctx.seed = spec.seed;
  auto sched = schedule::SchedulerRegistry::Global().Make(spec.scheduler,
                                                          sctx);
  if (!sched.ok()) return sched.status();
  if (!sched.value()->Passthrough()) {
    env.scheduler = std::move(sched).value();
    env.driver->set_scheduler(env.scheduler.get());
  }
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
  auto finish = [&]() -> ScenarioResult {
    result.stats = driver->stats();
    result.trace = env->cluster->shared_trace();
    driver->Quiesce();
    result.wall_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - wall_start)
                         .count();
    return std::move(result);
  };

  if (spec.continuous) {
    // The measure window runs under the continuous adaptivity controller:
    // sample -> replan -> live-migrate epochs interleaved with traffic.
    partition::SwappablePartitioner* live =
        env->bundle->adaptive_partitioner();
    if (live == nullptr) {
      return Status::FailedPrecondition(
          "workload '" + spec.workload +
          "' has a frozen layout; continuous mode needs an adaptive "
          "workload (one whose bundle exposes a swappable partitioner)");
    }
    driver->Start();
    advance_recorded(spec.warmup);
    driver->ResetStats();
    driver->set_measuring(true);

    migrate::AdaptiveControllerOptions copts;
    copts.period = spec.controller_period;
    copts.sample_rate = spec.controller_sample_rate;
    copts.drift_threshold = spec.controller_drift_threshold;
    copts.hysteresis_epochs = spec.controller_hysteresis;
    copts.lock_window_txns =
        static_cast<double>(spec.concurrency) * spec.partitions();
    copts.relayout_buckets = spec.relayout_buckets;
    copts.migrator.batch_records = spec.migrate_batch_records;
    copts.migrator.streams = spec.migrate_streams;
    copts.governor = spec.governor;
    copts.governor_opts.min_streams = spec.governor_min_streams;
    copts.governor_opts.max_streams = spec.governor_max_streams;
    copts.governor_opts.p99_budget = spec.governor_p99_budget;
    copts.governor_opts.max_abort_share = spec.governor_max_abort_share;
    copts.rearm_threshold = spec.rearm_threshold;
    copts.shadow = spec.shadow;
    copts.seed = spec.seed;
    migrate::AdaptiveController controller(driver, env->cluster.get(),
                                           env->repl.get(), live, copts);
    auto advanced = controller.RunFor(
        spec.measure, [&](SimTime d) { advance_recorded(d); });
    if (!advanced.ok()) return advanced.status();
    driver->set_measuring(false);
    driver->set_measured_window(advanced.value());

    const migrate::AdaptiveControllerReport& rep = controller.report();
    result.adaptive.sampled_txns = rep.sampled_txns;
    result.adaptive.lookup_entries = live->LookupEntries();
    result.adaptive.migration.moved_records = rep.moved_records;
    result.adaptive.migration.moved_bytes = rep.moved_bytes;
    result.adaptive.migration.sim_time = rep.migration_sim_time;
    result.adaptive.migration_start = rep.first_migration_start;
    result.adaptive.migration_end = rep.last_migration_end;
    result.adaptive.migration_window_commits = rep.window_commits;
    result.adaptive.migration_window_aborts = rep.window_aborts;
    result.adaptive.buckets_moved = rep.buckets_moved;
    result.adaptive.controller_epochs = rep.epochs;
    result.adaptive.controller_migrations = rep.migrations;
    result.adaptive.controller_settled = rep.settled;
    result.adaptive.controller_rearms = rep.rearms;
    result.adaptive.shadow_evals = rep.shadow_evals;
    result.adaptive.last_drift = rep.last_drift;
    result.adaptive.peak_streams = rep.peak_streams;
    result.adaptive.governor_widens = rep.governor_widens;
    result.adaptive.governor_narrows = rep.governor_narrows;
    return finish();
  }

  const std::vector<Phase> plan = spec.EffectivePhases();

  // Section 4.1 loop state, alive across phases: the sampling statistics
  // service and the layout the last replan built but has not yet migrated.
  std::unique_ptr<partition::StatsCollector> collector;
  std::unique_ptr<partition::LookupPartitioner> pending_layout;

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
        result.adaptive.sampled_txns = collector->sampled_txns();
        break;
      }

      case PhaseKind::kReplan: {
        if (env->bundle->adaptive_partitioner() == nullptr) {
          return Status::FailedPrecondition(
              "workload '" + spec.workload +
              "' has a frozen layout; replan phases need an adaptive "
              "workload (one whose bundle exposes a swappable partitioner)");
        }
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
        popts.lock_window_txns =
            static_cast<double>(spec.concurrency) * spec.partitions();
        auto out =
            partition::ChillerPartitioner::Build(collector->traces(), popts);
        result.adaptive.hot_records = out.hot_records.size();
        result.adaptive.lookup_entries = out.report.lookup_entries;
        pending_layout = std::move(out.partitioner);
        break;
      }

      case PhaseKind::kMigrate: {
        // Drain in-flight transactions, make the new layout live, move the
        // records to match it, then re-arm the closed loop. The swap and
        // the moves are invisible to execution: nothing runs in between.
        // The drain is recorded as its own timeline slice so the
        // stop-the-world window that follows is exactly the zero-commit
        // migration pause.
        {
          const SimTime t0 = sim->now();
          const uint64_t c0 = driver->lifetime_commits();
          const uint64_t l0 = driver->lifetime_latency_ns();
          driver->Quiesce();
          push_slice(t0, c0, l0);
        }
        partition::SwappablePartitioner* live =
            env->bundle->adaptive_partitioner();
        live->Swap(std::move(pending_layout));
        // The layout no longer matches what the workload was written
        // against: arm the protocols' layout-assumption checks (e.g.
        // Chiller's co-location contract degrades to the fallback instead
        // of CHECK-failing). Host-side only — the checks cannot fire on a
        // quiesced swap's consistent placement, so results are unchanged.
        env->cluster->bucket_locks()->NoteLayoutMutation();
        const SimTime mig_t0 = sim->now();
        const uint64_t mig_c0 = driver->lifetime_commits();
        const uint64_t mig_l0 = driver->lifetime_latency_ns();
        auto migration =
            cc::MigrateToLayout(env->cluster.get(), env->repl.get(), *live);
        if (!migration.ok()) return migration.status();
        result.adaptive.migration = migration.value();
        result.adaptive.migration_start = mig_t0;
        result.adaptive.migration_end = sim->now();
        result.adaptive.migration_window_commits =
            driver->lifetime_commits() - mig_c0;
        push_slice(mig_t0, mig_c0, mig_l0);
        driver->Resume();
        break;
      }

      case PhaseKind::kLiveMigrate: {
        // Incremental relayout under traffic (src/migrate): diff the
        // physical placement against the replanned layout, then keep the
        // driver advancing while the migrator walks the plan bucket by
        // bucket. No quiesce, no resume — commits keep flowing.
        partition::SwappablePartitioner* live =
            env->bundle->adaptive_partitioner();
        migrate::MigrationPlan mplan = migrate::MigrationPlan::Diff(
            env->cluster.get(), *pending_layout, spec.relayout_buckets);
        migrate::LiveMigratorOptions mopts;
        mopts.batch_records = spec.migrate_batch_records;
        mopts.streams = spec.migrate_streams;
        migrate::LiveMigrator migrator(env->cluster.get(), env->repl.get(),
                                       live, mopts);
        std::unique_ptr<migrate::MigrationGovernor> governor;
        if (spec.governor) {
          governor = std::make_unique<migrate::MigrationGovernor>(
              migrate::MigrationGovernorOptions{
                  .min_streams = spec.governor_min_streams,
                  .max_streams = spec.governor_max_streams,
                  .p99_budget = spec.governor_p99_budget,
                  .max_abort_share = spec.governor_max_abort_share},
              spec.migrate_streams, env->cluster->metrics());
        }
        const SimTime t0 = sim->now();
        const uint64_t c0 = driver->lifetime_commits();
        const uint64_t a0 = driver->lifetime_migration_aborts();
        Status mst = migrator.Start(std::move(mplan),
                                    std::move(pending_layout));
        if (!mst.ok()) return mst;
        const SimTime step = spec.timeline_slice > 0
                                 ? spec.timeline_slice
                                 : 100 * kMicrosecond;
        // Scope the governor's p99 window to the relayout's steps.
        if (governor != nullptr) driver->TakeCommitLatencyWindow();
        uint64_t guard = 0;
        while (!migrator.done()) {
          const uint64_t gc0 = driver->lifetime_commits();
          const uint64_t ga0 = driver->lifetime_migration_aborts();
          advance_recorded(step);
          if (governor != nullptr && !migrator.done()) {
            // One governor epoch per advance step: fold the step's
            // foreground signals into the stream width.
            migrate::GovernorSignals signals;
            signals.commits = driver->lifetime_commits() - gc0;
            signals.migration_aborts =
                driver->lifetime_migration_aborts() - ga0;
            const Histogram window = driver->TakeCommitLatencyWindow();
            signals.p99 =
                window.count() == 0 ? 0 : window.Percentile(99.0);
            migrator.SetTargetStreams(governor->Decide(signals));
          }
          CHILLER_CHECK(++guard < (1u << 20))
              << "live migration did not settle";
        }
        result.adaptive.migration = migrator.stats().base;
        result.adaptive.buckets_moved = migrator.stats().buckets_moved;
        result.adaptive.peak_streams = std::max(
            result.adaptive.peak_streams, migrator.stats().peak_streams);
        if (governor != nullptr) {
          result.adaptive.governor_widens += governor->report().widens;
          result.adaptive.governor_narrows += governor->report().narrows;
        }
        result.adaptive.migration_start = t0;
        result.adaptive.migration_end = t0 + migrator.stats().base.sim_time;
        // Window deltas include the tail of the slice in which the last
        // bucket flipped (at most one slice of overshoot).
        result.adaptive.migration_window_commits =
            driver->lifetime_commits() - c0;
        result.adaptive.migration_window_aborts =
            driver->lifetime_migration_aborts() - a0;
        break;
      }

      case PhaseKind::kMeasure:
        if (!stats_reset) {
          driver->ResetStats();
          stats_reset = true;
        }
        driver->set_measuring(true);
        advance_recorded(ph.duration);
        driver->set_measuring(false);
        measured += ph.duration;
        break;
    }
  }
  driver->set_measured_window(measured);
  return finish();
}

}  // namespace chiller::runner
