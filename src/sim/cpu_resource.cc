#include "sim/cpu_resource.h"

#include <algorithm>
#include <utility>

namespace chiller::sim {

void CpuResource::Submit(SimTime cost, Task fn) {
  const SimTime start = std::max(sim_->now(), busy_until_);
  const SimTime end = start + cost;
  busy_until_ = end;
  total_busy_ += cost;
  sim_->ScheduleIn(domain_, end, std::move(fn));
}

double CpuResource::Utilization() const {
  const SimTime now = sim_->now();
  if (now == 0) return 0.0;
  const SimTime busy = std::min(total_busy_, now);
  return static_cast<double>(busy) / static_cast<double>(now);
}

}  // namespace chiller::sim
