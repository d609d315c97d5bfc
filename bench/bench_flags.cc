#include "bench/bench_flags.h"

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

std::string UsageString(const std::string& bench_name,
                        const BenchFlags& defaults) {
  const BenchFlags& d = defaults;
  std::string protocols;
  for (const std::string& name : runner::ProtocolRegistry::Global().Names()) {
    if (!protocols.empty()) protocols += " | ";
    protocols += name;
  }
  std::string schedulers;
  for (const std::string& name :
       schedule::SchedulerRegistry::Global().Names()) {
    if (!schedulers.empty()) schedulers += " | ";
    schedulers += name;
  }
  // Two-pass snprintf: the protocol list comes from the registry, so the
  // text has no static size bound (out-of-tree binaries register more).
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
        "  --load-model=NAME   closed | open | batched (default %s)\n"
        "  --offered-tps=F     open loop: cluster-wide offered load, txns/sec"
        " (default %g)\n"
        "  --arrival=NAME      open loop: poisson | uniform (default %s)\n"
        "  --queue-cap=N       open loop: per-engine admission queue bound"
        " (default %u)\n"
        "  --batch-size=N      batched: admissions per engine batch"
        " (default %u)\n"
        "  --scheduler=NAME    admission scheduler: %s (default %s)\n"
        "  --sched-classes=N   conflict-class universe, 0 = auto"
        " (default %u)\n"
        "  --shed-policy=NAME  scheduled-queue overflow: drop-new |"
        " drop-cold | drop-hot (default %s)\n"
        "  --jobs=N            sweep worker threads, 0 = all hardware threads"
        " (default %u)\n"
        "  --shards=N          simulator shards per scenario; results are"
        " byte-identical for any N (default %u)\n"
        "  --mem-budget-mb=N   cap summed footprint of concurrently-loaded"
        " scenarios, 0 = unlimited (default %llu)\n"
        "  --trace-out=FILE    write a Chrome trace-event JSON of the"
        " sampled transactions (Perfetto-loadable)\n"
        "  --trace-sample-every=N  trace every Nth logical transaction per"
        " engine; 0 = off, --trace-out alone implies 1 (default %u)\n"
        "  --json=PATH         JSON report path (default BENCH_%s.json)\n"
        "  --no-json           skip the JSON report\n"
        "  --list-protocols    print registered protocols and exit\n"
        "  --list-workloads    print registered workloads and exit\n"
        "  --list-schedulers   print registered schedulers and exit\n"
        "  --list-shed-policies  print shed policies and exit\n"
        "  --help              show this message\n",
        bench_name.c_str(), protocols.c_str(), d.protocol.c_str(), d.nodes,
        d.engines, d.concurrency, d.warmup_ms, d.duration_ms, d.theta,
        static_cast<unsigned long long>(d.seed), d.load_model.c_str(),
        d.offered_tps, d.arrival.c_str(), d.queue_cap, d.batch_size,
        schedulers.c_str(), d.scheduler.c_str(), d.sched_classes,
        d.shed_policy.c_str(), d.jobs, d.shards,
        static_cast<unsigned long long>(d.mem_budget_mb),
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
    } else if (name == "list-shed-policies") {
      out->list_shed_policies = true;
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
    } else if (name == "batch-size") {
      st = ParseNumber(name, value, &out->batch_size);
    } else if (name == "scheduler") {
      if (value.empty()) {
        return Status::InvalidArgument("--scheduler requires a value");
      }
      out->scheduler = value;
    } else if (name == "sched-classes") {
      st = ParseNumber(name, value, &out->sched_classes);
    } else if (name == "shed-policy") {
      if (value.empty()) {
        return Status::InvalidArgument("--shed-policy requires a value");
      }
      out->shed_policy = value;
    } else if (name == "jobs") {
      st = ParseNumber(name, value, &out->jobs);
    } else if (name == "shards") {
      st = ParseNumber(name, value, &out->shards);
    } else if (name == "mem-budget-mb") {
      st = ParseNumber(name, value, &out->mem_budget_mb);
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
  if (out->mem_budget_mb > (UINT64_MAX >> 20)) {
    return Status::InvalidArgument("--mem-budget-mb overflows 64-bit bytes");
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
  runner::ScenarioSpec lm_spec;
  ApplyLoadModelFlags(*out, &lm_spec);
  lm_spec.concurrency = out->concurrency;
  lm_spec.seed = out->seed;
  Status lm_st = cc::ValidateLoadModelParams(lm_spec.load_model,
                                             lm_spec.MakeLoadModelParams());
  if (!lm_st.ok()) return lm_st;
  // Names only: benches may pin the load model per grid point (fig9 forces
  // "open" for its latency axis), so scheduler/model compatibility is the
  // runner's per-scenario check, not a flag-time one.
  return schedule::ValidateSchedulerNames(out->scheduler, out->shed_policy);
}

BenchFlags ParseBenchFlagsOrExit(int argc, const char* const* argv,
                                 const std::string& bench_name,
                                 BenchFlags defaults) {
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
  if (flags.list_protocols || flags.list_workloads || flags.list_schedulers ||
      flags.list_shed_policies) {
    if (flags.list_protocols) {
      for (const auto& n : runner::ProtocolRegistry::Global().Names()) {
        std::printf("%s\n", n.c_str());
      }
    }
    if (flags.list_workloads) {
      for (const auto& n : runner::WorkloadRegistry::Global().Names()) {
        std::printf("%s\n", n.c_str());
      }
    }
    if (flags.list_schedulers) {
      for (const auto& n : schedule::SchedulerRegistry::Global().Names()) {
        std::printf("%s\n", n.c_str());
      }
    }
    if (flags.list_shed_policies) {
      // ShedPolicy is a closed enum, not a registry; enumerate it here so
      // the flag keeps parity with the registry-backed --list-* flags.
      for (const auto policy :
           {schedule::ShedPolicy::kDropNew, schedule::ShedPolicy::kDropCold,
            schedule::ShedPolicy::kDropHot}) {
        std::printf("%s\n", schedule::ShedPolicyName(policy));
      }
    }
    std::exit(0);
  }
  return flags;
}

}  // namespace chiller::bench
