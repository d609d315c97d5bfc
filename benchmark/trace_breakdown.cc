#include "trace_breakdown.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "common/json.h"

namespace chiller::benchmark {

namespace {

struct Interval {
  SimTime start = 0;
  SimTime end = 0;
};

/// One transaction attempt's spans: the attempt itself and the child spans
/// that break it down.
struct AttemptSpans {
  bool has_attempt = false;
  Interval attempt;
  std::vector<Interval> children;
};

/// Trace timestamps are microseconds with a 3-digit nanosecond fraction.
SimTime ToNs(const Json* us) {
  return static_cast<SimTime>(std::llround(us->AsDouble() * 1000.0));
}

double ToUs(SimTime ns) { return static_cast<double>(ns) / 1000.0; }

/// Length of `outer` covered by the union of `parts`.
SimTime Covered(const Interval& outer, std::vector<Interval> parts) {
  std::sort(parts.begin(), parts.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  SimTime covered = 0;
  SimTime cursor = outer.start;
  for (const Interval& p : parts) {
    const SimTime s = std::max(p.start, cursor);
    const SimTime e = std::min(p.end, outer.end);
    if (e > s) {
      covered += e - s;
      cursor = e;
    }
  }
  return covered;
}

}  // namespace

StatusOr<TraceBreakdown> AnalyzeTrace(const std::string& trace_json,
                                      SimTime window_start,
                                      SimTime window_end) {
  auto doc = Json::Parse(trace_json);
  if (!doc.ok()) return doc.status();
  const Json* events = doc->Get("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return Status::InvalidArgument("trace has no traceEvents array");
  }

  TraceBreakdown out;
  std::map<std::pair<uint64_t, uint64_t>, AttemptSpans> attempts;
  for (const Json& ev : events->AsArray()) {
    ++out.events;
    const Json* ph = ev.Get("ph");
    const Json* name = ev.Get("name");
    const Json* ts = ev.Get("ts");
    if (ph == nullptr || name == nullptr || ts == nullptr) continue;
    const std::string& n = name->AsString();
    const SimTime start = ToNs(ts);
    if (ph->AsString() == "i") {
      if (n == "commit" && start >= window_start && start <= window_end) {
        ++out.commits;
      }
      continue;
    }
    if (ph->AsString() != "X") continue;
    const Interval span{start, start + ToNs(ev.Get("dur"))};
    if (span.start < window_start || span.end > window_end) continue;
    const double us = ToUs(span.end - span.start);
    if (n == "queue_wait") {
      out.queue_wait_us.push_back(us);
      continue;
    }
    if (n == "retry_backoff") {
      out.retry_backoff_us += us;
      continue;
    }
    const Json* args = ev.Get("args");
    const Json* txn = args == nullptr ? nullptr : args->Get("txn");
    const Json* attempt = args == nullptr ? nullptr : args->Get("attempt");
    if (txn == nullptr || attempt == nullptr) continue;
    AttemptSpans& group =
        attempts[{static_cast<uint64_t>(txn->AsDouble()),
                  static_cast<uint64_t>(attempt->AsDouble())}];
    if (n == "attempt") {
      group.has_attempt = true;
      group.attempt = span;
      out.attempt_us.push_back(us);
    } else if (n == "inner_region" || n == "commit_phase") {
      group.children.push_back(span);
      (n == "inner_region" ? out.inner_region_us : out.commit_phase_us)
          .push_back(us);
    }
  }
  for (const auto& [key, group] : attempts) {
    if (!group.has_attempt) continue;
    const SimTime self = group.attempt.end - group.attempt.start -
                         Covered(group.attempt, group.children);
    out.attempt_self_us.push_back(ToUs(self));
  }
  return out;
}

double SamplePercentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

}  // namespace chiller::benchmark
