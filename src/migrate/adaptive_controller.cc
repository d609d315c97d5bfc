#include "migrate/adaptive_controller.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/logging.h"
#include "partition/chiller_partitioner.h"
#include "partition/metrics.h"
#include "partition/stats_collector.h"

namespace chiller::migrate {

namespace {

/// Settled-epoch probes thinner than this are too noisy to judge a regime
/// shift; skip the comparison and keep the baseline.
constexpr size_t kMinProbeTraces = 8;

}  // namespace

AdaptiveController::AdaptiveController(cc::Driver* driver,
                                       cc::Cluster* cluster,
                                       cc::ReplicationManager* repl,
                                       partition::SwappablePartitioner* live,
                                       AdaptiveControllerOptions options)
    : driver_(driver),
      cluster_(cluster),
      live_(live),
      opts_(options),
      relayout_(driver, cluster, repl, live, opts_.migrator,
                opts_.governor ? std::optional(opts_.governor_opts)
                               : std::nullopt,
                &report_) {
  CHILLER_CHECK(opts_.period > 0);
  CHILLER_CHECK(opts_.sample_rate > 0.0 && opts_.sample_rate <= 1.0);
  CHILLER_CHECK(opts_.drift_threshold >= 0.0);
  CHILLER_CHECK(opts_.hysteresis_epochs >= 1);
  CHILLER_CHECK(opts_.relayout_buckets >= 1);
  CHILLER_CHECK(opts_.rearm_threshold >= 0.0);
  obs::MetricsRegistry* reg = cluster_->metrics();
  c_epochs_ = reg->GetCounter("controller.epochs");
  c_migrations_ = reg->GetCounter("controller.migrations");
  c_rearms_ = reg->GetCounter("controller.rearms");
}

AdaptiveController::~AdaptiveController() = default;

void AdaptiveController::BeginEpoch() {
  const bool migrating = relayout_.in_flight();
  if (!report_.settled && !migrating) {
    // One collector for the whole hunt — the statistics service's view of
    // the workload only grows (paper Section 4.1), which is what lets a
    // stable workload converge: single-epoch samples are thin enough
    // that every fresh candidate would genuinely beat the last noisy
    // one, and the loop would churn forever. A re-arm retires it, so a
    // shifted regime is not anchored by the old one's traces.
    if (collector_ == nullptr) {
      collector_ = std::make_unique<partition::StatsCollector>(
          opts_.sample_rate, opts_.seed);
      collector_->set_retain_traces(true);
      // Commit observers fire from the committing engine's shard
      // thread; per-engine shards keep the sampled stream independent
      // of the simulator's shard count.
      collector_->EnableEngineSharding(cluster_->num_engines());
    }
    partition::StatsCollector* stats = collector_.get();
    driver_->SetCommitObserver(
        [stats](const txn::Transaction& t) { stats->Observe(t); });
  } else if (report_.settled && opts_.rearm_threshold > 0.0) {
    // Drift probe: a fresh collector per settled epoch, so the live
    // layout's residual is scored on *current* traffic only. Seed salted
    // per epoch to decorrelate the probes' sampling streams.
    probe_ = std::make_unique<partition::StatsCollector>(
        opts_.sample_rate,
        opts_.seed ^ (0x9e3779b97f4a7c15ull * (report_.epochs + 1)));
    probe_->set_retain_traces(true);
    probe_->EnableEngineSharding(cluster_->num_engines());
    partition::StatsCollector* stats = probe_.get();
    driver_->SetCommitObserver(
        [stats](const txn::Transaction& t) { stats->Observe(t); });
  }
  relayout_.BeginEpoch();
}

StatusOr<SimTime> AdaptiveController::RunFor(
    SimTime duration, const std::function<void(SimTime)>& advance) {
  auto step = [&](SimTime d) {
    if (advance) {
      advance(d);
    } else {
      driver_->Advance(d);
    }
  };

  SimTime advanced = 0;
  while (advanced < duration) {
    const SimTime this_step = std::min(opts_.period, duration - advanced);
    BeginEpoch();
    step(this_step);
    advanced += this_step;
    ++report_.epochs;
    c_epochs_->AddControl();
    CloseEpoch();
  }

  // Never hand control back mid-transition: routing must be collapsed
  // before the caller reads final state.
  while (relayout_.in_flight()) {
    BeginEpoch();
    step(opts_.period);
    advanced += opts_.period;
    ++report_.epochs;
    c_epochs_->AddControl();
    CloseEpoch();
  }
  return advanced;
}

void AdaptiveController::CloseEpoch() {
  if (relayout_.finished()) {
    // Harvest the finished relayout's accounting exactly once. No replan
    // this epoch — it sampled nothing while the relayout ran.
    relayout_.Harvest();
    // Harvest boundary, not the exact in-flight end: the window counters
    // are read here, so span and counters describe the same interval (the
    // exact span lives in migration_sim_time).
    report_.last_migration_end = cluster_->sim()->now();
    return;
  }
  if (relayout_.in_flight()) {
    // Mid-relayout epoch: no replanning (nothing sampled), but a governor
    // folds this epoch's foreground signals into the stream width.
    relayout_.CloseEpoch();
    return;
  }
  if (report_.settled) {
    MaybeRearm();
    return;
  }
  if (collector_ == nullptr) return;

  driver_->SetCommitObserver(nullptr);
  report_.sampled_txns = sampled_retired_ + collector_->sampled_txns();

  // Holdout split over the cumulative trace set: the candidate trains on
  // the even-indexed traces and both layouts are scored on the odd-indexed
  // ones. Without the split, the candidate is evaluated on its own
  // training sample and "improves" by its overfit margin every epoch —
  // the controller would re-migrate a stable workload forever.
  const std::vector<partition::TxnAccessTrace>& all = collector_->traces();
  std::vector<partition::TxnAccessTrace> train;
  std::vector<partition::TxnAccessTrace> eval;
  train.reserve(all.size() / 2 + 1);
  eval.reserve(all.size() / 2);
  for (size_t i = 0; i < all.size(); ++i) {
    (i % 2 == 0 ? train : eval).push_back(all[i]);
  }

  partition::ChillerPartitioner::Options popts;
  popts.k = cluster_->topology().num_partitions();
  popts.seed = opts_.seed;
  popts.hot_threshold = opts_.hot_threshold;
  popts.lock_window_txns = opts_.lock_window_txns;
  auto out = partition::ChillerPartitioner::Build(train, popts);

  // Drift: the relative residual-contention improvement the candidate
  // layout delivers on the held-out traces. Cost-based rather than
  // placement-diff-based on purpose — the min-cut has many symmetric
  // optima, and a converged layout must read as "no drift" even when the
  // candidate relabels partitions. A relayout only starts when it would
  // actually pay (the reaction-worth-the-cost rule of the production
  // loop).
  const std::vector<double> costs = partition::ResidualContention(
      eval, {live_, out.partitioner.get()}, *collector_,
      opts_.lock_window_txns);
  const double live_cost = costs[0];
  const double cand_cost = costs[1];
  const double drift =
      live_cost <= 0.0 ? 0.0 : (live_cost - cand_cost) / live_cost;
  report_.last_drift = drift;

  if (opts_.shadow) {
    // Zero-risk observer: the candidate is scored (last_drift shows what a
    // relayout would gain) but never executed, and the loop never settles
    // — it keeps scoring for the whole run.
    ++report_.shadow_evals;
    return;
  }

  MigrationPlan plan;
  if (drift > opts_.drift_threshold) {
    plan = MigrationPlan::Diff(cluster_, *live_, *out.partitioner,
                               opts_.relayout_buckets);
  }
  if (plan.total_moves() > 0) {
    calm_epochs_ = 0;
    const Status st =
        relayout_.Start(std::move(plan), std::move(out.partitioner));
    CHILLER_CHECK(st.ok()) << st.ToString();
    ++report_.migrations;
    c_migrations_->AddControl();
  } else if (++calm_epochs_ >= opts_.hysteresis_epochs) {
    report_.settled = true;
    // The calm-state baseline comes from the first settled probe (same
    // estimator as every later probe, so the comparison is unbiased),
    // not from this epoch's cumulative holdout.
    baseline_residual_ = 0.0;
  }
}

void AdaptiveController::MaybeRearm() {
  if (opts_.rearm_threshold <= 0.0 || probe_ == nullptr) return;
  driver_->SetCommitObserver(nullptr);
  std::unique_ptr<partition::StatsCollector> probe = std::move(probe_);
  sampled_retired_ += probe->sampled_txns();
  report_.sampled_txns =
      sampled_retired_ +
      (collector_ != nullptr ? collector_->sampled_txns() : 0);
  const std::vector<partition::TxnAccessTrace>& traces = probe->traces();
  if (traces.size() < kMinProbeTraces) return;
  // Per-trace normalization: ResidualContention sums over traces, and
  // probes of different epochs catch different trace counts.
  const double live_residual =
      partition::ResidualContention(traces, {live_}, *probe,
                                    opts_.lock_window_txns)[0] /
      static_cast<double>(traces.size());
  if (baseline_residual_ <= 0.0 || live_residual < baseline_residual_) {
    // First probe after settling, or a calmer epoch than any seen: this is
    // the calm-state estimate. Ratcheting down (never up) keeps a slow
    // worsening from dragging the baseline along with it.
    baseline_residual_ = live_residual;
    return;
  }
  const double shift =
      (live_residual - baseline_residual_) / baseline_residual_;
  if (shift > opts_.rearm_threshold) {
    // Regime shift: re-arm the full sample -> replan -> migrate loop. The
    // cumulative collector is retired with its traces — the old regime
    // would anchor every candidate the new one trains.
    ++report_.rearms;
    c_rearms_->AddControl();
    report_.settled = false;
    calm_epochs_ = 0;
    baseline_residual_ = 0.0;
    if (collector_ != nullptr) {
      sampled_retired_ += collector_->sampled_txns();
      collector_.reset();
    }
  }
}

}  // namespace chiller::migrate
