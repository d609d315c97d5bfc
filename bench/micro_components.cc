// google-benchmark micro benchmarks for the core components, including the
// Section 4.1 claim that contention likelihoods for ~1M records compute in
// seconds.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "cc/driver.h"
#include "cc/exec_common.h"
#include "cc/replication.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/zipf.h"
#include "migrate/migration_plan.h"
#include "migrate/relayout.h"
#include "partition/contention_model.h"
#include "partition/lookup_table.h"
#include "partition/multilevel_partitioner.h"
#include "partition/stats_collector.h"
#include "partition/workload_graph.h"
#include "runner/runner.h"
#include "schedule/scheduler.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "storage/lock_word.h"
#include "storage/partition_store.h"
#include "txn/dependency_graph.h"
#include "workload/tpcc/tpcc_workload.h"

namespace chiller {
namespace {

void BM_LockWordAcquireRelease(benchmark::State& state) {
  uint64_t w = storage::LockWord::MakeFree(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(storage::LockWord::TryAcquireExclusive(&w));
    storage::LockWord::ReleaseExclusive(&w, true);
  }
}
BENCHMARK(BM_LockWordAcquireRelease);

void BM_EventQueuePushPop(benchmark::State& state) {
  sim::EventQueue q;
  Rng rng(1);
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) q.Push(rng.Uniform(1000000), [] {});
    while (!q.empty()) q.Pop();
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueuePushPop);

void BM_SimulatorEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    int count = 0;
    for (int i = 0; i < 10000; ++i) {
      sim.Schedule(static_cast<SimTime>(i), [&count] { ++count; });
    }
    sim.Run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_SimulatorEventThroughput);

void BM_ZipfNext(benchmark::State& state) {
  ZipfGenerator zipf(1000000, 0.99);
  Rng rng(2);
  for (auto _ : state) benchmark::DoNotOptimize(zipf.Next(&rng));
}
BENCHMARK(BM_ZipfNext);

void BM_AliasSamplerNext(benchmark::State& state) {
  std::vector<double> weights(100000);
  Rng seed_rng(3);
  for (auto& w : weights) w = seed_rng.NextDouble();
  AliasSampler sampler(weights);
  Rng rng(4);
  for (auto _ : state) benchmark::DoNotOptimize(sampler.Next(&rng));
}
BENCHMARK(BM_AliasSamplerNext);

void BM_ContentionLikelihood(benchmark::State& state) {
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(partition::ContentionModel::ConflictLikelihood(
        rng.NextDouble() * 4, rng.NextDouble() * 4));
  }
}
BENCHMARK(BM_ContentionLikelihood);

/// Section 4.1: "even for a sample with one million records, such
/// calculation can be performed in a matter of a few seconds".
void BM_ContentionForMillionRecords(benchmark::State& state) {
  partition::StatsCollector stats;
  Rng rng(6);
  partition::TxnAccessTrace trace;
  for (int t = 0; t < 100000; ++t) {
    trace.accesses.clear();
    for (int i = 0; i < 10; ++i) {
      trace.accesses.emplace_back(RecordId{0, rng.Uniform(1000000)},
                                  rng.Bernoulli(0.5));
    }
    stats.ObserveTrace(trace);
  }
  for (auto _ : state) {
    auto pcs = stats.ContentionLikelihoods(16.0);
    benchmark::DoNotOptimize(pcs.data());
  }
}
BENCHMARK(BM_ContentionForMillionRecords)->Unit(benchmark::kMillisecond);

void BM_TwoRegionPlan(benchmark::State& state) {
  // Wired through the scenario runner — the flight bundle supplies the
  // partitioner and the transaction source, exactly as a real run would.
  runner::ScenarioSpec spec;
  spec.workload = "flight";
  spec.nodes = 8;
  auto env = runner::ScenarioRunner::Wire(spec);
  CHILLER_CHECK(env.ok()) << env.status().ToString();
  const partition::RecordPartitioner* part = env->bundle->partitioner();
  Rng rng(12345);
  auto t = env->bundle->source()->Next(/*home=*/5, &rng);
  t->ResolveReadyKeys();
  for (auto& a : t->accesses) {
    if (a.key_resolved) a.partition = part->PartitionOf(a.rid);
  }
  for (auto _ : state) {
    auto plan = txn::DependencyAnalysis::Plan(
        *t, [&](const RecordId& r) { return part->IsHot(r); });
    benchmark::DoNotOptimize(plan.inner_host);
  }
}
BENCHMARK(BM_TwoRegionPlan);

/// Full scenario wiring (schema, data load, partitioner, protocol, driver)
/// for a small ycsb cluster: the fixed cost every sweep point pays before
/// its first simulated event.
void BM_ScenarioWire(benchmark::State& state) {
  runner::ScenarioSpec spec;
  spec.workload = "ycsb";
  spec.nodes = 4;
  spec.options.Set("keys_per_partition", 1000);
  for (auto _ : state) {
    auto env = runner::ScenarioRunner::Wire(spec);
    CHILLER_CHECK(env.ok()) << env.status().ToString();
    benchmark::DoNotOptimize(env->cluster->TotalPrimaryRecords());
  }
}
BENCHMARK(BM_ScenarioWire)->Unit(benchmark::kMillisecond);

/// The admission scheduler's per-arrival cost: classify a drawn ycsb
/// transaction by its hottest record and route it to an engine. This runs
/// once per arrival under the open model, so it must stay far below one
/// simulated interarrival gap.
void BM_SchedulerRoute(benchmark::State& state) {
  runner::ScenarioSpec spec;
  spec.workload = "ycsb";
  spec.nodes = 4;
  spec.options.Set("keys_per_partition", 1000);
  spec.options.Set("theta", 0.95);
  auto env = runner::ScenarioRunner::Wire(spec);
  CHILLER_CHECK(env.ok()) << env.status().ToString();
  schedule::SchedulerContext ctx;
  ctx.num_engines = spec.partitions();
  ctx.partitioner = env->bundle->partitioner();
  auto sched = schedule::Schedulers().Make("hash-affinity", ctx);
  CHILLER_CHECK(sched.ok()) << sched.status().ToString();

  // A pool of drawn transactions, pre-resolved exactly like Driver::Draw.
  Rng rng(21);
  std::vector<std::unique_ptr<txn::Transaction>> pool;
  for (int i = 0; i < 256; ++i) {
    auto t = env->bundle->source()->Next(
        static_cast<PartitionId>(i % spec.partitions()), &rng);
    t->ResolveReadyKeys();
    pool.push_back(std::move(t));
  }
  size_t i = 0;
  for (auto _ : state) {
    const txn::Transaction& t = *pool[i];
    const uint32_t cls = sched.value()->Classify(t);
    benchmark::DoNotOptimize(
        sched.value()->Route(t, cls, static_cast<EngineId>(i % 4)));
    i = (i + 1) % pool.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SchedulerRoute);

/// The migration planner's placement diff: enumerate the records the live
/// and target layouts name, keep the ones whose primary changes, and group
/// them into per-relayout-bucket units in storage scan order. Runs once per
/// replan decision (every controller epoch that trips the drift
/// threshold), so it must stay cheap next to the simulated relayout it
/// schedules.
void BM_MigrationPlanDiff(benchmark::State& state) {
  runner::ScenarioSpec spec;
  spec.workload = "adaptive";
  spec.nodes = 4;
  spec.options.Set("keys_per_partition", 2000);
  auto env = runner::ScenarioRunner::Wire(spec);
  CHILLER_CHECK(env.ok()) << env.status().ToString();
  // Target layout: every 10th record re-homed one partition over — the
  // shape of a modest replan (most records stay put).
  auto target = std::make_unique<partition::LookupPartitioner>(
      std::make_unique<partition::HashPartitioner>(spec.partitions()));
  uint64_t i = 0;
  for (PartitionId p = 0; p < spec.partitions(); ++p) {
    env->cluster->primary(p)->ForEach(
        [&](const RecordId& rid, const storage::Record&) {
          if (i++ % 10 == 0) {
            target->Assign(rid, (p + 1) % spec.partitions());
          }
        });
  }
  for (auto _ : state) {
    auto plan = migrate::MigrationPlan::Diff(
        env->cluster.get(), *env->bundle->adaptive_partitioner(), *target,
        /*num_buckets=*/64);
    benchmark::DoNotOptimize(plan.units.data());
  }
  state.SetItemsProcessed(state.iterations() * target->LookupEntries());
}
BENCHMARK(BM_MigrationPlanDiff)->Unit(benchmark::kMicrosecond);

/// The protocol-side migration gate: every record access of every
/// transaction probes BucketLockTable::IsMigrating while a relayout epoch
/// is live — with several buckets locked (the concurrent-streams shape)
/// and one storage bucket frozen, the worst realistic case.
void BM_BucketLockProbe(benchmark::State& state) {
  migrate::BucketLockTable locks;
  locks.BeginEpoch(/*num_buckets=*/64);
  for (migrate::BucketId b : {3u, 17u, 31u, 58u}) locks.Acquire(b);
  locks.FreezeStorageBucket({PartitionId{1}, TableId{0}, size_t{42}});
  Rng rng(23);
  std::vector<RecordId> rids;
  rids.reserve(1024);
  for (int i = 0; i < 1024; ++i) {
    rids.push_back(RecordId{0, rng.Uniform(1u << 20)});
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(locks.IsMigrating(rids[i]));
    i = (i + 1) % rids.size();
  }
  state.SetItemsProcessed(state.iterations());
  for (migrate::BucketId b : {3u, 17u, 31u, 58u}) locks.Release(b);
  locks.UnfreezeStorageBucket({PartitionId{1}, TableId{0}, size_t{42}});
  locks.EndEpoch();
}
BENCHMARK(BM_BucketLockProbe);

/// Evicts the host caches between timed batches, as hyrise's micro
/// benchmark fixture does (`_clear_cache`, SNIPPETS.md snippet 2): it
/// writes a buffer the size of the last-level cache, so the next batch
/// starts cold.
void ClearCache() {
  static std::vector<uint64_t> buffer = [] {
    const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
    const size_t bytes = llc > 0 ? static_cast<size_t>(llc) : size_t{32} << 20;
    return std::vector<uint64_t>(bytes / sizeof(uint64_t));
  }();
  for (uint64_t& w : buffer) ++w;
  benchmark::ClobberMemory();
}

/// The benchmark's TPC-C cluster (16 warehouses on 8x2 engines, as
/// benchmark/main.cc wires it), loaded and ready to probe.
runner::ScenarioEnv WireBenchmarkTpcc() {
  runner::ScenarioSpec spec;
  spec.workload = "tpcc";
  spec.protocol = "chiller";
  spec.nodes = 8;
  spec.engines_per_node = 2;
  spec.options.Set("num_warehouses", 16);
  auto env = runner::ScenarioRunner::Wire(spec);
  CHILLER_CHECK(env.ok()) << env.status().ToString();
  return std::move(env).value();
}

/// The record probe every simulated access makes at its store: NO_WAIT
/// lock the bucket, find the record, copy it out, unlock. Random keys over
/// the primaries of the benchmark's TPC-C cluster, with the caches cleared
/// before each batch of probes, so every probe pays the memory stalls a
/// run does.
void BM_StoreProbe(benchmark::State& state) {
  runner::ScenarioEnv env = WireBenchmarkTpcc();
  const PartitionId partitions = env.cluster->topology().num_partitions();
  std::vector<std::pair<storage::PartitionStore*, RecordId>> all;
  for (PartitionId p = 0; p < partitions; ++p) {
    storage::PartitionStore* store = env.cluster->primary(p);
    store->ForEach([&](const RecordId& rid, const storage::Record&) {
      all.emplace_back(store, rid);
    });
  }
  Rng rng(29);
  constexpr size_t kBatch = 4096;
  std::vector<std::pair<storage::PartitionStore*, RecordId>> probes(kBatch);
  for (auto& probe : probes) probe = all[rng.Uniform(all.size())];
  for (auto _ : state) {
    state.PauseTiming();
    ClearCache();
    state.ResumeTiming();
    for (const auto& [store, rid] : probes) {
      CHILLER_CHECK(store->TryLock(rid, storage::LockMode::kExclusive).ok());
      storage::Record copy = *store->Find(rid);
      benchmark::DoNotOptimize(copy);
      store->Unlock(rid, storage::LockMode::kExclusive, /*modified=*/false);
    }
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_StoreProbe)->Unit(benchmark::kMicrosecond);

/// One logical transaction's host work over two attempts on the
/// benchmark's TPC-C cluster: build a NewOrder from drawn params, place and
/// plan it as Chiller's setup slice does, make its retry
/// (Driver::RebuildForRetry, which shares the op list), then place and
/// plan the retry. Report only. Items are logical transactions.
void BM_TxnAttemptLifecycle(benchmark::State& state) {
  runner::ScenarioEnv env = WireBenchmarkTpcc();
  const partition::RecordPartitioner* part = env.bundle->partitioner();
  const cc::exec::Deps deps{env.cluster.get(), part};
  const txn::HotFn is_hot = [part](const RecordId& r) {
    return part->IsHot(r);
  };
  Rng rng(37);
  std::vector<std::vector<int64_t>> pool;
  while (pool.size() < 256) {
    auto t = env.bundle->source()->Next(
        static_cast<PartitionId>(pool.size() % 16), &rng);
    if (t->txn_class == workload::tpcc::kNewOrderTxn) {
      pool.push_back(t->ctx.params);
    }
  }
  auto place_and_plan = [&](txn::Transaction* t) {
    t->ResolveReadyKeys();
    for (size_t i = 0; i < t->accesses.size(); ++i) {
      if (t->accesses[i].key_resolved) {
        t->accesses[i].partition = cc::exec::ResolvePartition(deps, *t, i);
      }
    }
    return txn::DependencyAnalysis::Plan(*t, is_hot);
  };
  size_t k = 0;
  for (auto _ : state) {
    std::shared_ptr<txn::Transaction> first =
        workload::tpcc::BuildNewOrder(pool[k]);
    first->home = static_cast<PartitionId>(pool[k][0]);  // its warehouse
    benchmark::DoNotOptimize(place_and_plan(first.get()).inner_host);
    std::shared_ptr<txn::Transaction> retry =
        cc::Driver::RebuildForRetry(*first);
    retry->home = first->home;
    benchmark::DoNotOptimize(place_and_plan(retry.get()).inner_host);
    k = (k + 1) % pool.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TxnAttemptLifecycle);

/// A replica applying a commit's update batch: 12 puts per batch (the mean
/// batch of the benchmark's tpcc-chiller run) to random records of one
/// partition's first replica, each put writing the image the record
/// already holds. Caches are cleared before each round of batches, as in
/// BM_StoreProbe. Items are updates.
void BM_ReplicaApply(benchmark::State& state) {
  runner::ScenarioEnv env = WireBenchmarkTpcc();
  constexpr size_t kUpdatesPerBatch = 12;
  constexpr size_t kBatches = 256;
  struct Batch {
    storage::PartitionStore* store;
    std::vector<cc::ReplUpdate> updates;
  };
  const PartitionId partitions = env.cluster->topology().num_partitions();
  std::vector<std::vector<RecordId>> rids(partitions);
  for (PartitionId p = 0; p < partitions; ++p) {
    env.cluster->replica(p, 1)->ForEach(
        [&](const RecordId& rid, const storage::Record&) {
          rids[p].push_back(rid);
        });
  }
  Rng rng(31);
  std::vector<Batch> batches(kBatches);
  for (Batch& b : batches) {
    const auto p = static_cast<PartitionId>(rng.Uniform(partitions));
    b.store = env.cluster->replica(p, 1);
    for (size_t u = 0; u < kUpdatesPerBatch; ++u) {
      const RecordId rid = rids[p][rng.Uniform(rids[p].size())];
      b.updates.push_back(
          cc::ReplUpdate{.rid = rid, .image = *b.store->Find(rid)});
    }
  }
  for (auto _ : state) {
    state.PauseTiming();
    ClearCache();
    state.ResumeTiming();
    for (const Batch& b : batches) {
      cc::ReplicationManager::ApplyAtReplica(b.store, b.updates);
    }
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kBatches * kUpdatesPerBatch);
}
BENCHMARK(BM_ReplicaApply)->Unit(benchmark::kMicrosecond);

void BM_MultilevelPartition(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  Rng rng(7);
  partition::Graph g;
  g.adj.resize(n);
  g.vwgt.assign(n, 1.0);
  for (uint32_t e = 0; e < n * 4; ++e) {
    uint32_t a = rng.Uniform(n), b = rng.Uniform(n);
    if (a == b) continue;
    g.adj[a].emplace_back(b, 1.0 + rng.NextDouble());
    g.adj[b].emplace_back(a, 1.0 + rng.NextDouble());
  }
  for (auto _ : state) {
    auto result = partition::MultilevelPartitioner::Partition(
        g, {.k = 8, .seed = 11});
    benchmark::DoNotOptimize(result.cut_weight);
  }
}
BENCHMARK(BM_MultilevelPartition)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace chiller

BENCHMARK_MAIN();
