// Live vs quiesced relayout under traffic (the src/migrate subsystem,
// paper Section 4.1's production loop), plus the concurrent-stream and
// workload-shift extensions. All rows share the same hash-start contended
// ycsb (`adaptive`) scenario:
//
//   quiesced    — sample -> replan -> Phase::Migrate(): the legacy
//                 stop-the-world relayout. Its timeline shows a
//                 zero-commit window exactly as long as the migration.
//   live        — sample -> replan -> Phase::LiveMigrate(): the same plan
//                 executed one relayout bucket at a time while traffic
//                 flows; transactions hitting the in-flight bucket retry
//                 with the dedicated migration abort class.
//   live-s2/s4  — the identical plan streamed 2 / 4 buckets at a time:
//                 same moved-record set, relayout window ~1/k as long,
//                 migration-abort pressure k times wider.
//   governed    — the live plan under a migrate::MigrationGovernor that
//                 retunes the stream width each advance step against the
//                 foreground abort-share/p99 SLO (AIMD: widen when calm,
//                 halve on violation).
//   continuous  — no phase plan: the measure window runs under
//                 migrate::AdaptiveController (periodic sample -> replan ->
//                 live-migrate epochs with drift gating + hysteresis).
//   shift-*     — a phase-shifting workload (the sampled hot set rotates
//                 mid-window) under three adaptivity postures: `shift-static`
//                 never replans (hash layout throughout), `shift-settle`
//                 adapts once and settles (legacy terminal settling),
//                 `shift-rearm` re-arms on drift and chases the shift.
//
// The phased modes sample identically, so they replan identical layouts
// and move identical record sets: the streams sweep isolates *how fast*
// the same move is paid for. Each row carries the full commit-flow
// timeline (timeline_slice-sized buckets of lifetime commits + latency)
// so the relayout window is visible, not just summarized.
#include <algorithm>
#include <cstdio>

#include "bench/bench_flags.h"
#include "bench/bench_report.h"
#include "bench/bench_sweep.h"

namespace chiller::bench {
namespace {

constexpr SimTime kTimelineSlice = 250 * kMicrosecond;

/// Foreground p99 budget for the governed row; generous enough that only
/// a genuine latency regression (not steady-state contention) trips it.
constexpr SimTime kGovernorP99Budget = 5 * kMillisecond;

void Main(const BenchFlags& flags) {
  std::printf(
      "Live migration — ycsb (theta=%.2f) on %u nodes x %u engines,\n"
      "%s protocol; quiesced vs per-bucket live relayout (1/2/4 streams,\n"
      "SLO-governed) vs the continuous adaptivity controller, plus a\n"
      "phase-shifting workload under static / settle-once / re-armed\n"
      "adaptivity.\n\n",
      flags.theta, flags.nodes, flags.engines, flags.protocol.c_str());

  BenchReport report("migration");
  report.SetConfig("nodes", flags.nodes);
  report.SetConfig("engines_per_node", flags.engines);
  report.SetConfig("protocol", flags.protocol);
  report.SetConfig("theta", flags.theta);
  report.SetConfig("warmup_ms", flags.warmup_ms);
  report.SetConfig("duration_ms", flags.duration_ms);
  report.SetConfig("seed", flags.seed);
  report.SetConfig("timeline_slice_us",
                   static_cast<uint64_t>(kTimelineSlice / kMicrosecond));
  report.SetConfig("governor_p99_budget_us",
                   static_cast<uint64_t>(kGovernorP99Budget / kMicrosecond));

  runner::ScenarioSpec base = flags.BaseSpec();
  base.workload = "adaptive";
  base.options.Set("theta", flags.theta);
  base.options.Set("keys_per_partition", 10000);
  base.timeline_slice = kTimelineSlice;
  const SimTime warmup = base.warmup;
  const SimTime measure = base.measure;
  // Same shape as fig_adaptive_relayout: a long sample window so the
  // replan sees the contended head, then a resettle before measuring.
  const SimTime sample = 2 * warmup + measure;
  const SimTime resettle = warmup;
  // The continuous rows fold sample + resettle + measure into one
  // controller-driven window, so every mode spends the same simulated time.
  const SimTime window = sample + resettle + measure;

  const std::vector<runner::Phase> phased = {
      runner::Phase::Warmup(warmup),
      runner::Phase::Sample(sample, /*rate=*/1.0),
      runner::Phase::Replan(),
      runner::Phase::LiveMigrate(),
      runner::Phase::Warmup(resettle),
      runner::Phase::Measure(measure),
  };

  runner::ScenarioSpec quiesced = base;
  quiesced.label = "quiesced";
  quiesced.phases = {
      runner::Phase::Warmup(warmup),
      runner::Phase::Sample(sample, /*rate=*/1.0),
      runner::Phase::Replan(),
      runner::Phase::Migrate(),
      runner::Phase::Warmup(resettle),
      runner::Phase::Measure(measure),
  };

  runner::ScenarioSpec live = base;
  live.label = "live";
  live.phases = phased;

  runner::ScenarioSpec live_s2 = base;
  live_s2.label = "live-s2";
  live_s2.phases = phased;
  live_s2.migrate_streams = 2;

  runner::ScenarioSpec live_s4 = base;
  live_s4.label = "live-s4";
  live_s4.phases = phased;
  live_s4.migrate_streams = 4;

  runner::ScenarioSpec governed = base;
  governed.label = "governed";
  governed.phases = phased;
  governed.governor = true;
  governed.governor_max_streams = 8;
  governed.governor_p99_budget = kGovernorP99Budget;
  // This workload's per-epoch migration-abort share sits around 15-25%
  // while a bucket is in flight; a 30% budget lets calm epochs widen and
  // still halves the width whenever the gate's pressure spikes past it.
  governed.governor_max_abort_share = 0.30;

  runner::ScenarioSpec continuous = base;
  continuous.label = "continuous";
  continuous.continuous = true;
  // Same total simulated time as the phased modes (their relayout costs
  // land inside this window instead of before it).
  continuous.measure = window;
  continuous.controller_period = std::max<SimTime>(kMillisecond, warmup);

  // --- the phase-shifting trio ---------------------------------------------
  // The sampled hot set rotates by `stride` keys per `shift_every` of
  // simulated time; one rotation lands mid-window, after a continuous
  // controller had time to settle on the pre-shift layout.
  const SimTime shift_every = warmup + window / 2;
  constexpr uint64_t kShiftStride = 2500;
  auto shifting_spec = [&] {
    runner::ScenarioSpec spec = base;
    spec.options.Set("shift_every_us",
                     static_cast<uint64_t>(shift_every / kMicrosecond));
    spec.options.Set("shift_stride", kShiftStride);
    return spec;
  };

  runner::ScenarioSpec shift_static = shifting_spec();
  shift_static.label = "shift-static";
  // No sample/replan/migrate at all: the hash layout rides out the shift.
  // The measure window matches the continuous rows for a fair total.
  shift_static.phases = {
      runner::Phase::Warmup(warmup),
      runner::Phase::Measure(window),
  };

  runner::ScenarioSpec shift_settle = shifting_spec();
  shift_settle.label = "shift-settle";
  shift_settle.continuous = true;
  shift_settle.measure = window;
  shift_settle.controller_period = kMillisecond;  // settle well before the shift

  runner::ScenarioSpec shift_rearm = shifting_spec();
  shift_rearm.label = "shift-rearm";
  shift_rearm.continuous = true;
  shift_rearm.measure = window;
  shift_rearm.controller_period = kMillisecond;
  shift_rearm.rearm_threshold = 0.2;

  Sweep sweep(flags, "migration");
  const auto results = sweep.Run({quiesced, live, live_s2, live_s4, governed,
                                  continuous, shift_static, shift_settle,
                                  shift_rearm});

  auto window_tps = [](const runner::AdaptiveReport& a) {
    const SimTime span = a.migration_end - a.migration_start;
    if (span == 0) return 0.0;
    return static_cast<double>(a.migration_window_commits) /
           (static_cast<double>(span) / kSecond);
  };

  for (const runner::ScenarioResult& r : results) {
    const runner::AdaptiveReport& a = r.adaptive;
    Json params = Json::MakeObject();
    params["mode"] = r.spec.label;
    params["streams"] = static_cast<uint64_t>(r.spec.migrate_streams);
    Json row = ResultRow(flags.protocol, std::move(params), r.stats);
    row["sampled_txns"] = a.sampled_txns;
    row["hot_records"] = static_cast<uint64_t>(a.hot_records);
    row["lookup_entries"] = static_cast<uint64_t>(a.lookup_entries);
    row["moved_records"] = a.migration.moved_records;
    row["moved_bytes"] = a.migration.moved_bytes;
    row["migration_us"] =
        static_cast<double>(a.migration.sim_time) / 1000.0;
    row["buckets_moved"] = static_cast<uint64_t>(a.buckets_moved);
    row["migration_window_start_us"] =
        static_cast<double>(a.migration_start) / 1000.0;
    row["migration_window_end_us"] =
        static_cast<double>(a.migration_end) / 1000.0;
    row["migration_window_commits"] = a.migration_window_commits;
    row["migration_window_aborts"] = a.migration_window_aborts;
    row["migration_window_tps"] = window_tps(a);
    row["peak_streams"] = static_cast<uint64_t>(a.peak_streams);
    if (r.spec.governor) {
      row["governor_widens"] = static_cast<uint64_t>(a.governor_widens);
      row["governor_narrows"] = static_cast<uint64_t>(a.governor_narrows);
    }
    if (r.spec.continuous) {
      row["controller_epochs"] = static_cast<uint64_t>(a.controller_epochs);
      row["controller_migrations"] =
          static_cast<uint64_t>(a.controller_migrations);
      row["controller_settled"] = a.controller_settled;
      row["controller_rearms"] = static_cast<uint64_t>(a.controller_rearms);
      row["last_drift"] = a.last_drift;
    }
    Json timeline = Json::MakeArray();
    for (const runner::TimelineSlice& s : a.timeline) {
      Json slice = Json::MakeObject();
      slice["start_us"] = static_cast<double>(s.start) / 1000.0;
      slice["end_us"] = static_cast<double>(s.end) / 1000.0;
      slice["commits"] = s.commits;
      slice["tps"] = s.end == s.start
                         ? 0.0
                         : static_cast<double>(s.commits) /
                               (static_cast<double>(s.end - s.start) /
                                kSecond);
      slice["latency_mean_ns"] =
          s.commits == 0 ? 0.0
                         : static_cast<double>(s.latency_ns_sum) /
                               static_cast<double>(s.commits);
      timeline.Append(std::move(slice));
    }
    row["timeline"] = std::move(timeline);
    report.Add(std::move(row));
  }

  std::printf("%-14s %11s %13s %11s %10s %11s %7s\n", "mode", "final Mtps",
              "window Mtps", "moved recs", "migr us", "migr aborts",
              "peak k");
  for (const runner::ScenarioResult& r : results) {
    std::printf("%-14s %11.3f %13.3f %11llu %10.1f %11llu %7u\n",
                r.spec.label.c_str(), r.stats.Throughput() / 1e6,
                window_tps(r.adaptive) / 1e6,
                static_cast<unsigned long long>(
                    r.adaptive.migration.moved_records),
                static_cast<double>(r.adaptive.migration.sim_time) / 1000.0,
                static_cast<unsigned long long>(
                    r.adaptive.migration_window_aborts),
                r.adaptive.peak_streams);
  }
  std::printf("\n");
  for (const runner::ScenarioResult& r : results) {
    if (!r.spec.continuous) continue;
    std::printf(
        "%-14s %u epochs, %u relayouts, %u re-arms, %s\n",
        r.spec.label.c_str(), r.adaptive.controller_epochs,
        r.adaptive.controller_migrations, r.adaptive.controller_rearms,
        r.adaptive.controller_settled ? "settled" : "still adapting");
  }

  std::printf("\n");
  sweep.PrintWallClock();

  report.MaybeWrite(flags.emit_json, flags.JsonPathFor("migration"));
}

}  // namespace
}  // namespace chiller::bench

int main(int argc, char** argv) {
  chiller::bench::BenchFlags defaults;
  defaults.theta = 0.9;   // contended: the regime relayout targets
  defaults.nodes = 4;     // 16 partitions: plenty of cross-partition moves
  defaults.engines = 4;
  defaults.warmup_ms = 2.0;
  defaults.duration_ms = 10.0;
  // Every mode is compared by closed-loop throughput; under an open loop
  // below the knee each row would just serve the offered rate.
  chiller::bench::Main(chiller::bench::ParseBenchFlagsOrExit(
      argc, argv, "migration", defaults,
      chiller::bench::kClosedLoopOnlyFlags));
}
