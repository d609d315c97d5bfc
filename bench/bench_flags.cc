#include "bench/bench_flags.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <type_traits>

#include "cc/load_model.h"
#include "runner/registry.h"
#include "schedule/scheduler.h"

namespace chiller::bench {
namespace {

/// Splits "--name=value" into name/value. Flags without '=' get an empty
/// value (only boolean flags accept that).
bool SplitFlag(const std::string& arg, std::string* name, std::string* value) {
  if (arg.rfind("--", 0) != 0) return false;
  const size_t eq = arg.find('=');
  if (eq == std::string::npos) {
    *name = arg.substr(2);
    value->clear();
  } else {
    *name = arg.substr(2, eq - 2);
    *value = arg.substr(eq + 1);
  }
  return true;
}

template <typename T>
Status ParseNumber(const std::string& flag, const std::string& value, T* out) {
  if (value.empty()) {
    return Status::InvalidArgument("--" + flag + " requires a value");
  }
  T parsed{};
  const char* first = value.data();
  const char* last = value.data() + value.size();
  auto [ptr, ec] = std::from_chars(first, last, parsed);
  bool finite = true;
  if constexpr (std::is_floating_point_v<T>) finite = std::isfinite(parsed);
  if (ec != std::errc() || ptr != last || !finite) {
    return Status::InvalidArgument("bad value for --" + flag + ": '" + value +
                                   "'");
  }
  *out = parsed;
  return Status::OK();
}

}  // namespace

runner::ScenarioSpec BenchFlags::BaseSpec() const {
  runner::ScenarioSpec spec;
  spec.protocol = protocol;
  spec.nodes = nodes;
  spec.engines_per_node = engines;
  spec.concurrency = concurrency;
  spec.seed = seed;
  spec.warmup = static_cast<SimTime>(warmup_ms * kMillisecond);
  spec.measure = static_cast<SimTime>(duration_ms * kMillisecond);
  spec.load_model = load_model;
  spec.offered_tps = offered_tps;
  spec.arrival = arrival;
  spec.queue_cap = queue_cap;
  spec.scheduler = scheduler;
  spec.shards = shards;
  spec.trace_sample_every = trace_sample_every;
  return spec;
}

Status RejectUnreadFlags(const BenchFlags& flags,
                         std::initializer_list<std::string_view> unread) {
  for (const std::string& name : flags.given) {
    if (std::find(unread.begin(), unread.end(), name) != unread.end()) {
      return Status::InvalidArgument(
          "--" + name +
          " has no effect in this bench: its grid fixes the value, or it "
          "never reads it");
    }
  }
  return Status::OK();
}

std::string UsageString(const std::string& bench_name,
                        const BenchFlags& defaults) {
  const BenchFlags& d = defaults;
  const std::string protocols = JoinNames(runner::Protocols().Names(), " | ");
  const std::string schedulers =
      JoinNames(schedule::Schedulers().Names(), " | ");
  // Two-pass snprintf: the name lists come from the tables, so the text
  // has no fixed size bound.
  const auto format = [&](char* buf, size_t size) {
    return std::snprintf(
        buf, size,
        "usage: %s [flags]\n"
        "  --protocol=NAME     protocol where selectable: %s (default %s)\n"
        "  --nodes=N           cluster nodes (default %u)\n"
        "  --engines=N         engines per node (default %u)\n"
        "  --concurrency=N     open txns per engine (default %u)\n"
        "  --warmup-ms=F       simulated warmup, ms (default %g)\n"
        "  --duration-ms=F     simulated measurement window, ms (default %g)\n"
        "  --theta=F           Zipf skew where applicable (default %g)\n"
        "  --seed=N            base RNG seed (default %llu)\n"
        "  --load-model=NAME   closed | open (default %s)\n"
        "  --offered-tps=F     open loop: cluster-wide offered load, txns/sec"
        " (default %g)\n"
        "  --arrival=NAME      open loop: poisson | uniform (default %s)\n"
        "  --queue-cap=N       open loop: per-engine admission queue bound"
        " (default %u)\n"
        "  --scheduler=NAME    admission scheduler: %s (default %s)\n"
        "  --jobs=N            sweep worker threads, 0 = all hardware threads"
        " (default %u)\n"
        "  --shards=N          simulator shards per scenario; results are"
        " byte-identical for any N (default %u)\n"
        "  --trace-out=FILE    write a Chrome trace-event JSON of the"
        " sampled transactions (Perfetto-loadable)\n"
        "  --trace-sample-every=N  trace every Nth logical transaction per"
        " engine; 0 = off, --trace-out alone implies 1 (default %u)\n"
        "  --json=PATH         JSON report path (default BENCH_%s.json)\n"
        "  --no-json           skip the JSON report\n"
        "  --list-protocols    print registered protocols and exit\n"
        "  --list-workloads    print registered workloads and exit\n"
        "  --list-schedulers   print registered schedulers and exit\n"
        "  --help              show this message\n",
        bench_name.c_str(), protocols.c_str(), d.protocol.c_str(), d.nodes,
        d.engines, d.concurrency, d.warmup_ms, d.duration_ms, d.theta,
        static_cast<unsigned long long>(d.seed), d.load_model.c_str(),
        d.offered_tps, d.arrival.c_str(), d.queue_cap,
        schedulers.c_str(), d.scheduler.c_str(), d.jobs, d.shards,
        d.trace_sample_every, bench_name.c_str());
  };
  const int needed = format(nullptr, 0);
  std::string out(static_cast<size_t>(needed) + 1, '\0');
  format(out.data(), out.size());
  out.resize(static_cast<size_t>(needed));
  return out;
}

Status ParseBenchFlags(int argc, const char* const* argv, BenchFlags* out) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string name, value;
    if (!SplitFlag(arg, &name, &value)) {
      return Status::InvalidArgument("unexpected argument '" + arg + "'");
    }
    Status st;
    if (name == "help") {
      out->help = true;
      return Status::OK();
    } else if (name == "list-protocols") {
      out->list_protocols = true;
    } else if (name == "list-workloads") {
      out->list_workloads = true;
    } else if (name == "list-schedulers") {
      out->list_schedulers = true;
    } else if (name == "no-json") {
      out->emit_json = false;
    } else if (name == "protocol") {
      if (value.empty()) {
        return Status::InvalidArgument("--protocol requires a value");
      }
      out->protocol = value;
    } else if (name == "json") {
      if (value.empty()) {
        return Status::InvalidArgument("--json requires a value");
      }
      out->json_path = value;
    } else if (name == "nodes") {
      st = ParseNumber(name, value, &out->nodes);
    } else if (name == "engines") {
      st = ParseNumber(name, value, &out->engines);
    } else if (name == "concurrency") {
      st = ParseNumber(name, value, &out->concurrency);
    } else if (name == "warmup-ms") {
      st = ParseNumber(name, value, &out->warmup_ms);
    } else if (name == "duration-ms") {
      st = ParseNumber(name, value, &out->duration_ms);
    } else if (name == "theta") {
      st = ParseNumber(name, value, &out->theta);
    } else if (name == "seed") {
      st = ParseNumber(name, value, &out->seed);
    } else if (name == "load-model") {
      if (value.empty()) {
        return Status::InvalidArgument("--load-model requires a value");
      }
      out->load_model = value;
    } else if (name == "offered-tps") {
      st = ParseNumber(name, value, &out->offered_tps);
    } else if (name == "arrival") {
      if (value.empty()) {
        return Status::InvalidArgument("--arrival requires a value");
      }
      out->arrival = value;
    } else if (name == "queue-cap") {
      st = ParseNumber(name, value, &out->queue_cap);
    } else if (name == "scheduler") {
      if (value.empty()) {
        return Status::InvalidArgument("--scheduler requires a value");
      }
      out->scheduler = value;
    } else if (name == "jobs") {
      st = ParseNumber(name, value, &out->jobs);
    } else if (name == "shards") {
      st = ParseNumber(name, value, &out->shards);
    } else if (name == "trace-out") {
      if (value.empty()) {
        return Status::InvalidArgument("--trace-out requires a value");
      }
      out->trace_out = value;
    } else if (name == "trace-sample-every") {
      st = ParseNumber(name, value, &out->trace_sample_every);
    } else {
      return Status::InvalidArgument("unknown flag '" + arg + "'");
    }
    if (!st.ok()) return st;
    out->given.push_back(name);
  }
  if (out->nodes == 0 || out->engines == 0 || out->concurrency == 0) {
    return Status::InvalidArgument(
        "--nodes, --engines, and --concurrency must be positive");
  }
  // Replicas land on distinct nodes, and no bench lowers the spec's
  // default replication degree.
  const uint32_t replicas = runner::ScenarioSpec{}.replication_degree;
  if (out->nodes < replicas) {
    return Status::InvalidArgument("--nodes must be >= " +
                                   std::to_string(replicas) +
                                   " (one node per replica)");
  }
  if (out->warmup_ms < 0 || out->duration_ms <= 0) {
    return Status::InvalidArgument(
        "--warmup-ms must be >= 0 and --duration-ms > 0");
  }
  if (out->shards == 0) {
    return Status::InvalidArgument("--shards must be >= 1");
  }
  if (!out->trace_out.empty() && out->trace_sample_every == 0) {
    // --trace-out alone means "trace everything": an empty trace from a
    // forgotten sampling flag helps nobody.
    out->trace_sample_every = 1;
  }
  // Same validator and spec conversion the runner applies per scenario,
  // run here so a bad combination (--load-model=open without
  // --offered-tps, --queue-cap=0, an unknown --arrival) fails before any
  // sweep starts.
  const runner::ScenarioSpec spec = out->BaseSpec();
  Status lm_st = cc::ValidateLoadModelParams(spec.load_model,
                                             spec.MakeLoadModelParams());
  if (!lm_st.ok()) return lm_st;
  // Names only, so a typo fails before any scenario is built: the latency
  // and scheduling benches pin the load model per grid point (closed-loop
  // probes, then an open-loop grid), so scheduler/model compatibility is
  // the runner's per-scenario check, not a flag-time one.
  Status name_st = runner::Protocols().Check(out->protocol);
  if (!name_st.ok()) return name_st;
  return schedule::Schedulers().Check(out->scheduler);
}

BenchFlags ParseBenchFlagsOrExit(
    int argc, const char* const* argv, const std::string& bench_name,
    BenchFlags defaults, std::initializer_list<std::string_view> unread) {
  BenchFlags flags = defaults;
  const Status st = ParseBenchFlags(argc, argv, &flags);
  if (!st.ok()) {
    std::fprintf(stderr, "%s: %s\n%s", bench_name.c_str(),
                 st.message().c_str(),
                 UsageString(bench_name, defaults).c_str());
    std::exit(1);
  }
  if (flags.help) {
    std::fputs(UsageString(bench_name, defaults).c_str(), stdout);
    std::exit(0);
  }
  if (flags.list_protocols || flags.list_workloads || flags.list_schedulers) {
    if (flags.list_protocols) {
      for (const auto& n : runner::Protocols().Names()) {
        std::printf("%s\n", n.c_str());
      }
    }
    if (flags.list_workloads) {
      for (const auto& n : runner::Workloads().Names()) {
        std::printf("%s\n", n.c_str());
      }
    }
    if (flags.list_schedulers) {
      for (const auto& n : schedule::Schedulers().Names()) {
        std::printf("%s\n", n.c_str());
      }
    }
    std::exit(0);
  }
  Status refused = RejectUnreadFlags(flags, unread);
  // A scheduler every scenario would reject (hash-affinity under the closed
  // loop) fails here, once and before any output, not once per scenario.
  // It runs after the refusal so a bench that never reads --scheduler says
  // so instead.
  if (refused.ok()) {
    const runner::ScenarioSpec spec = flags.BaseSpec();
    refused = schedule::ValidateSchedulerParams(spec.scheduler,
                                                 spec.load_model);
  }
  if (!refused.ok()) {
    std::fprintf(stderr, "%s: %s\n", bench_name.c_str(),
                 refused.message().c_str());
    std::exit(1);
  }
  return flags;
}

}  // namespace chiller::bench
