#include "migrate/migration_governor.h"

#include <algorithm>

#include "common/logging.h"

namespace chiller::migrate {

MigrationGovernor::MigrationGovernor(MigrationGovernorOptions options,
                                     uint32_t initial_streams,
                                     obs::MetricsRegistry* registry)
    : opts_(options),
      c_decisions_(registry->GetCounter("governor.decisions")),
      c_widens_(registry->GetCounter("governor.widens")),
      c_narrows_(registry->GetCounter("governor.narrows")),
      g_width_(registry->GetGauge("governor.stream_width")),
      base_decisions_(c_decisions_->Sum()),
      base_widens_(c_widens_->Sum()),
      base_narrows_(c_narrows_->Sum()) {
  CHILLER_CHECK(opts_.min_streams >= 1);
  CHILLER_CHECK(opts_.min_streams <= opts_.max_streams);
  CHILLER_CHECK(opts_.max_abort_share >= 0.0 && opts_.max_abort_share <= 1.0);
  target_ = std::clamp(initial_streams, opts_.min_streams, opts_.max_streams);
  g_width_->Set(static_cast<int64_t>(target_));
}

MigrationGovernorReport MigrationGovernor::report() const {
  return {
      .decisions = static_cast<uint32_t>(c_decisions_->Sum() - base_decisions_),
      .widens = static_cast<uint32_t>(c_widens_->Sum() - base_widens_),
      .narrows = static_cast<uint32_t>(c_narrows_->Sum() - base_narrows_)};
}

uint32_t MigrationGovernor::Decide(const GovernorSignals& signals) {
  c_decisions_->AddControl();
  const uint64_t outcomes = signals.commits + signals.migration_aborts;
  const double abort_share =
      outcomes == 0
          ? 0.0
          : static_cast<double>(signals.migration_aborts) /
                static_cast<double>(outcomes);
  const bool latency_violated =
      opts_.p99_budget > 0 && signals.p99 > opts_.p99_budget;
  const bool aborts_violated = abort_share > opts_.max_abort_share;
  const uint32_t next =
      latency_violated || aborts_violated
          ? std::max(opts_.min_streams, target_ / 2)
          : std::min(opts_.max_streams, target_ + 1);
  if (next < target_) c_narrows_->AddControl();
  if (next > target_) c_widens_->AddControl();
  target_ = next;
  g_width_->Set(static_cast<int64_t>(target_));
  return target_;
}

}  // namespace chiller::migrate
