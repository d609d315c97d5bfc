// Tests for the partitioning pipeline: contention model (Section 4.1), star
// and co-access graphs (Section 4.2), the multilevel partitioner (METIS
// substitute), and the Schism / Chiller pipelines — including the paper's
// Figure 5 example workload.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <set>

#include "common/random.h"
#include "common/zipf.h"
#include "partition/chiller_partitioner.h"
#include "partition/contention_model.h"
#include "partition/metrics.h"
#include "partition/multilevel_partitioner.h"
#include "partition/schism.h"
#include "partition/stats_collector.h"
#include "partition/workload_graph.h"

namespace chiller::partition {
namespace {

// ---------- Contention model ----------

TEST(ContentionModelTest, ZeroWritesMeansZeroConflict) {
  // Shared locks are compatible: no writes => no conflicts, whatever the
  // read rate.
  EXPECT_DOUBLE_EQ(ContentionModel::ConflictLikelihood(0.0, 0.0), 0.0);
  EXPECT_NEAR(ContentionModel::ConflictLikelihood(0.0, 100.0), 0.0, 1e-12);
}

TEST(ContentionModelTest, MatchesTwoTermDefinition) {
  // The closed form must equal P(Xw>1)P(Xr=0) + P(Xw>0)P(Xr>0).
  for (double lw : {0.01, 0.1, 0.5, 1.0, 3.0}) {
    for (double lr : {0.0, 0.05, 0.7, 2.0}) {
      const double p_w_gt1 = 1.0 - std::exp(-lw) - lw * std::exp(-lw);
      const double p_r_eq0 = std::exp(-lr);
      const double p_w_gt0 = 1.0 - std::exp(-lw);
      const double p_r_gt0 = 1.0 - std::exp(-lr);
      const double expected = p_w_gt1 * p_r_eq0 + p_w_gt0 * p_r_gt0;
      EXPECT_NEAR(ContentionModel::ConflictLikelihood(lw, lr), expected,
                  1e-12);
    }
  }
}

TEST(ContentionModelTest, MonotoneInWriteRate) {
  double prev = -1.0;
  for (double lw = 0.0; lw <= 5.0; lw += 0.1) {
    const double pc = ContentionModel::ConflictLikelihood(lw, 0.5);
    EXPECT_GT(pc, prev - 1e-12);
    prev = pc;
  }
}

TEST(ContentionModelTest, ReadsAmplifyWriteConflicts) {
  const double with_reads = ContentionModel::ConflictLikelihood(0.5, 2.0);
  const double without = ContentionModel::ConflictLikelihood(0.5, 0.0);
  EXPECT_GT(with_reads, without);
}

TEST(ContentionModelTest, SaturatesAtOne) {
  EXPECT_NEAR(ContentionModel::ConflictLikelihood(50.0, 50.0), 1.0, 1e-9);
  EXPECT_LE(ContentionModel::ConflictLikelihood(50.0, 50.0), 1.0);
}

// ---------- Stats collector ----------

TxnAccessTrace Trace(std::vector<std::pair<Key, bool>> keys,
                     uint64_t mult = 1) {
  TxnAccessTrace t;
  t.multiplicity = mult;
  for (auto [k, w] : keys) t.accesses.emplace_back(RecordId{0, k}, w);
  return t;
}

TEST(StatsCollectorTest, CountsReadsAndWrites) {
  StatsCollector s;
  s.ObserveTrace(Trace({{1, true}, {2, false}}));
  s.ObserveTrace(Trace({{1, true}, {3, false}}));
  EXPECT_EQ(s.sampled_txns(), 2u);
  EXPECT_EQ(s.records().at({0, 1}).writes, 2u);
  EXPECT_EQ(s.records().at({0, 2}).reads, 1u);
}

TEST(StatsCollectorTest, LambdaNormalization) {
  StatsCollector s;
  for (int i = 0; i < 10; ++i) s.ObserveTrace(Trace({{1, true}}));
  // Written in every transaction: lambda_w = window size.
  EXPECT_DOUBLE_EQ(s.LambdaW({0, 1}, 16.0), 16.0);
  EXPECT_DOUBLE_EQ(s.LambdaR({0, 1}, 16.0), 0.0);
  EXPECT_DOUBLE_EQ(s.LambdaW({0, 99}, 16.0), 0.0);
}

TEST(StatsCollectorTest, MultiplicityCounts) {
  StatsCollector s;
  s.ObserveTrace(Trace({{1, true}}, 100));
  s.ObserveTrace(Trace({{2, true}}, 1));
  EXPECT_EQ(s.sampled_txns(), 101u);
  EXPECT_NEAR(s.LambdaW({0, 1}, 1.0), 100.0 / 101.0, 1e-12);
}

TEST(StatsCollectorTest, ContentionLikelihoodsSorted) {
  StatsCollector s;
  for (int i = 0; i < 50; ++i) s.ObserveTrace(Trace({{1, true}, {2, false}}));
  for (int i = 0; i < 5; ++i) s.ObserveTrace(Trace({{3, true}}));
  auto pcs = s.ContentionLikelihoods(16.0);
  ASSERT_EQ(pcs.size(), 3u);
  EXPECT_EQ(pcs[0].first, (RecordId{0, 1}));  // hottest: written most
  for (size_t i = 1; i < pcs.size(); ++i) {
    EXPECT_LE(pcs[i].second, pcs[i - 1].second);
  }
}

TEST(StatsCollectorTest, SamplingReducesVolume) {
  StatsCollector s(/*sample_rate=*/0.1, /*seed=*/7);
  txn::Transaction t;  // Observe() path needs a real transaction
  (void)t;
  // Use the trace path with Bernoulli behavior checked statistically via
  // Observe(): construct a minimal transaction.
  for (int i = 0; i < 2000; ++i) {
    txn::Transaction tx;
    txn::Operation op;
    op.type = txn::OpType::kUpdate;
    op.table = 0;
    op.mode = storage::LockMode::kExclusive;
    op.key_fn = [](const txn::TxnContext&) { return Key{1}; };
    op.on_apply = [](txn::TxnContext&, storage::Record*) {};
    tx.SetOps({op});
    tx.ResolveReadyKeys();
    s.Observe(tx);
  }
  EXPECT_GT(s.sampled_txns(), 100u);
  EXPECT_LT(s.sampled_txns(), 400u);  // ~200 expected at 10%
}

/// A committed transaction homed at `home` that accesses `keys` of table 0
/// in order (true = write).
txn::Transaction Txn(PartitionId home,
                     std::vector<std::pair<Key, bool>> keys) {
  txn::Transaction tx;
  tx.home = home;
  std::vector<txn::Operation> ops;
  for (auto [k, w] : keys) {
    txn::Operation op;
    op.type = w ? txn::OpType::kUpdate : txn::OpType::kRead;
    op.table = 0;
    ops.push_back(op);
  }
  tx.SetOps(std::move(ops));
  for (size_t i = 0; i < keys.size(); ++i) {
    tx.accesses[i].rid = RecordId{0, keys[i].first};
    tx.accesses[i].key_resolved = true;
  }
  return tx;
}

TEST(StatsCollectorTest, IncrementalShardMergeMatchesAFreshCollector) {
  // Reads between observations merge only what is new. The merged view
  // must equal a collector that saw the same stream and merged once:
  // shard-major traces (engine 0's, then engine 1's, ...) and summed
  // counts, also when a lower shard grows after a higher one was merged.
  struct Step {
    PartitionId home;
    std::vector<std::pair<Key, bool>> keys;
  };
  const std::vector<Step> stream = {
      {2, {{1, true}, {2, false}}}, {0, {{1, true}}},
      {2, {{3, false}, {1, false}}}, {1, {{4, true}, {2, true}}},
      {0, {{2, false}, {5, true}}}, {3, {{1, true}, {1, false}}},
      {1, {{6, false}}},             {0, {{1, true}, {6, true}}},
  };
  StatsCollector incremental(1.0, 5);
  incremental.set_retain_traces(true);
  incremental.EnableEngineSharding(4);
  for (size_t i = 0; i < stream.size(); ++i) {
    incremental.Observe(Txn(stream[i].home, stream[i].keys));
    // Read after every other step, so merges interleave with growth in
    // every shard (engine 0 grows after engines 1-3 were merged).
    if (i % 2 == 1) {
      EXPECT_EQ(incremental.traces().size(), i + 1);
      EXPECT_EQ(incremental.sampled_txns(), i + 1);
    }
    if (i == 4) EXPECT_GT(incremental.records().size(), 0u);
  }

  StatsCollector fresh(1.0, 5);
  fresh.set_retain_traces(true);
  fresh.EnableEngineSharding(4);
  for (const Step& step : stream) fresh.Observe(Txn(step.home, step.keys));

  const std::vector<TxnAccessTrace>& got = incremental.traces();
  const std::vector<TxnAccessTrace>& want = fresh.traces();
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].accesses, want[i].accesses) << "trace " << i;
    EXPECT_EQ(got[i].multiplicity, want[i].multiplicity);
  }
  // Shard-major: the first trace is engine 0's first.
  ASSERT_FALSE(got.empty());
  EXPECT_EQ(got[0].accesses.front().first, (RecordId{0, 1}));
  EXPECT_EQ(got[0].accesses.size(), 1u);

  EXPECT_EQ(incremental.sampled_txns(), fresh.sampled_txns());
  ASSERT_EQ(incremental.records().size(), fresh.records().size());
  for (const auto& [rid, counts] : fresh.records()) {
    const auto it = incremental.records().find(rid);
    ASSERT_NE(it, incremental.records().end()) << rid.ToString();
    EXPECT_EQ(it->second.reads, counts.reads) << rid.ToString();
    EXPECT_EQ(it->second.writes, counts.writes) << rid.ToString();
  }
  EXPECT_EQ(incremental.records().at(RecordId{0, 1}).writes, 4u);
  EXPECT_EQ(incremental.records().at(RecordId{0, 1}).reads, 2u);
}

// ---------- Workload graphs ----------

TEST(WorkloadGraphTest, StarHasNEdgesPerTxn) {
  // Section 4.4: n edges per transaction vs Schism's n(n-1)/2.
  std::vector<TxnAccessTrace> traces = {
      Trace({{1, true}, {2, true}, {3, true}, {4, true}})};
  StatsCollector stats;
  for (const auto& t : traces) stats.ObserveTrace(t);
  auto star = WorkloadGraphBuilder::BuildStar(traces, stats, {});
  auto co = WorkloadGraphBuilder::BuildCoAccess(traces);
  EXPECT_EQ(star.graph.num_edges(), 4u);      // n
  EXPECT_EQ(co.graph.num_edges(), 6u);        // n(n-1)/2
  EXPECT_EQ(star.graph.num_vertices(), 5u);   // 4 records + 1 t-vertex
  EXPECT_EQ(co.graph.num_vertices(), 4u);
}

TEST(WorkloadGraphTest, DedupeMergesIdenticalTxns) {
  std::vector<TxnAccessTrace> traces;
  for (int i = 0; i < 10; ++i) traces.push_back(Trace({{1, true}, {2, true}}));
  StatsCollector stats;
  for (const auto& t : traces) stats.ObserveTrace(t);
  WorkloadGraphBuilder::StarOptions opts;
  opts.dedupe_identical_txns = true;
  auto star = WorkloadGraphBuilder::BuildStar(traces, stats, opts);
  EXPECT_EQ(star.num_t_vertices, 1u);
  opts.dedupe_identical_txns = false;
  auto star2 = WorkloadGraphBuilder::BuildStar(traces, stats, opts);
  EXPECT_EQ(star2.num_t_vertices, 10u);
}

TEST(WorkloadGraphTest, EdgeWeightIsContentionLikelihood) {
  std::vector<TxnAccessTrace> traces = {Trace({{1, true}, {2, false}})};
  StatsCollector stats;
  stats.ObserveTrace(traces[0]);
  WorkloadGraphBuilder::StarOptions opts;
  opts.lock_window_txns = 16.0;
  auto star = WorkloadGraphBuilder::BuildStar(traces, stats, opts);
  // Find vertex of record 1 and check its star edge weight.
  for (uint32_t v = 0; v < star.records.size(); ++v) {
    const double expected = ContentionModel::ConflictLikelihood(
        stats.LambdaW(star.records[v], 16.0),
        stats.LambdaR(star.records[v], 16.0));
    ASSERT_EQ(star.graph.adj[v].size(), 1u);
    EXPECT_DOUBLE_EQ(star.graph.adj[v][0].second, expected);
    EXPECT_DOUBLE_EQ(star.contention[v], expected);
  }
}

TEST(WorkloadGraphTest, MinEdgeWeightCoOptimization) {
  std::vector<TxnAccessTrace> traces = {Trace({{1, false}, {2, false}})};
  StatsCollector stats;
  stats.ObserveTrace(traces[0]);
  WorkloadGraphBuilder::StarOptions opts;
  opts.min_edge_weight = 0.25;
  auto star = WorkloadGraphBuilder::BuildStar(traces, stats, opts);
  // Read-only records have Pc = 0; the floor keeps the edges meaningful.
  for (uint32_t v = 0; v < star.records.size(); ++v) {
    EXPECT_DOUBLE_EQ(star.graph.adj[v][0].second, 0.25);
  }
}

TEST(WorkloadGraphTest, LoadMetricVertexWeights) {
  std::vector<TxnAccessTrace> traces = {Trace({{1, true}, {2, false}}, 3)};
  StatsCollector stats;
  stats.ObserveTrace(traces[0]);
  WorkloadGraphBuilder::StarOptions opts;
  opts.metric = LoadMetric::kTxnCount;
  auto star = WorkloadGraphBuilder::BuildStar(traces, stats, opts);
  // t-vertex carries the multiplicity; r-vertices weigh nothing.
  EXPECT_DOUBLE_EQ(star.graph.vwgt[star.records.size()], 3.0);
  EXPECT_DOUBLE_EQ(star.graph.vwgt[0], 0.0);

  opts.metric = LoadMetric::kAccessCount;
  auto star2 = WorkloadGraphBuilder::BuildStar(traces, stats, opts);
  EXPECT_DOUBLE_EQ(star2.graph.vwgt[0], 3.0);  // 3 accesses (multiplicity)
}

// ---------- Multilevel partitioner ----------

Graph TwoCliques(uint32_t size, double bridge_weight) {
  Graph g;
  g.adj.resize(2 * size);
  g.vwgt.assign(2 * size, 1.0);
  auto add = [&](uint32_t a, uint32_t b, double w) {
    g.adj[a].emplace_back(b, w);
    g.adj[b].emplace_back(a, w);
  };
  for (uint32_t c = 0; c < 2; ++c) {
    for (uint32_t i = 0; i < size; ++i) {
      for (uint32_t j = i + 1; j < size; ++j) {
        add(c * size + i, c * size + j, 1.0);
      }
    }
  }
  add(0, size, bridge_weight);
  return g;
}

TEST(MultilevelPartitionerTest, FindsObviousBisection) {
  Graph g = TwoCliques(20, 0.5);
  auto result = MultilevelPartitioner::Partition(g, {.k = 2, .seed = 3});
  // The only cut edge should be the bridge.
  EXPECT_DOUBLE_EQ(result.cut_weight, 0.5);
  // Each clique wholly on one side.
  for (uint32_t v = 1; v < 20; ++v) {
    EXPECT_EQ(result.assignment[v], result.assignment[0]);
  }
  for (uint32_t v = 21; v < 40; ++v) {
    EXPECT_EQ(result.assignment[v], result.assignment[20]);
  }
}

TEST(MultilevelPartitionerTest, RespectsBalanceBound) {
  Rng rng(11);
  Graph g;
  const uint32_t n = 500;
  g.adj.resize(n);
  g.vwgt.assign(n, 1.0);
  for (uint32_t e = 0; e < 2000; ++e) {
    uint32_t a = rng.Uniform(n), b = rng.Uniform(n);
    if (a == b) continue;
    const double w = 1.0 + rng.NextDouble();
    g.adj[a].emplace_back(b, w);
    g.adj[b].emplace_back(a, w);
  }
  for (uint32_t k : {2u, 4u, 8u}) {
    auto result = MultilevelPartitioner::Partition(
        g, {.k = k, .epsilon = 0.1, .seed = 5});
    auto loads = MultilevelPartitioner::Loads(g, result.assignment, k);
    const double avg = g.TotalVertexWeight() / k;
    for (double load : loads) {
      EXPECT_LE(load, (1.0 + 0.1) * avg + 1.0) << "k=" << k;
    }
    // All partitions used.
    std::set<uint32_t> used(result.assignment.begin(),
                            result.assignment.end());
    EXPECT_EQ(used.size(), k);
  }
}

TEST(MultilevelPartitionerTest, BeatsRandomAssignment) {
  Rng rng(13);
  // Ring of clusters: strong intra-cluster edges, weak ring edges.
  Graph g;
  const uint32_t clusters = 8, per = 25;
  const uint32_t n = clusters * per;
  g.adj.resize(n);
  g.vwgt.assign(n, 1.0);
  auto add = [&](uint32_t a, uint32_t b, double w) {
    g.adj[a].emplace_back(b, w);
    g.adj[b].emplace_back(a, w);
  };
  for (uint32_t c = 0; c < clusters; ++c) {
    for (uint32_t i = 0; i < per; ++i) {
      for (uint32_t j = i + 1; j < per; ++j) {
        add(c * per + i, c * per + j, 5.0);
      }
    }
    add(c * per, ((c + 1) % clusters) * per, 0.1);
  }
  auto result = MultilevelPartitioner::Partition(
      g, {.k = 4, .epsilon = 0.1, .seed = 17});
  std::vector<uint32_t> random(n);
  for (auto& p : random) p = static_cast<uint32_t>(rng.Uniform(4));
  const double random_cut = MultilevelPartitioner::CutWeight(g, random);
  EXPECT_LT(result.cut_weight, random_cut / 10.0);
}

TEST(MultilevelPartitionerTest, DeterministicForSeed) {
  Graph g = TwoCliques(30, 1.0);
  auto a = MultilevelPartitioner::Partition(g, {.k = 2, .seed = 42});
  auto b = MultilevelPartitioner::Partition(g, {.k = 2, .seed = 42});
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.cut_weight, b.cut_weight);
}

TEST(MultilevelPartitionerTest, SinglePartitionTrivial) {
  Graph g = TwoCliques(10, 1.0);
  auto result = MultilevelPartitioner::Partition(g, {.k = 1});
  EXPECT_DOUBLE_EQ(result.cut_weight, 0.0);
  for (uint32_t p : result.assignment) EXPECT_EQ(p, 0u);
}

TEST(MultilevelPartitionerTest, ZeroWeightVerticesDontBreakBalance) {
  Graph g;
  g.adj.resize(100);
  g.vwgt.assign(100, 0.0);
  for (uint32_t v = 0; v < 50; ++v) g.vwgt[v] = 1.0;
  for (uint32_t v = 0; v + 1 < 100; ++v) {
    g.adj[v].emplace_back(v + 1, 1.0);
    g.adj[v + 1].emplace_back(v, 1.0);
  }
  auto result = MultilevelPartitioner::Partition(
      g, {.k = 2, .epsilon = 0.1, .seed = 9});
  auto loads = MultilevelPartitioner::Loads(g, result.assignment, 2);
  EXPECT_LE(std::max(loads[0], loads[1]), 1.1 * 25.0 + 1.0);
}

// ---------- Layout metrics ----------

/// One layout's residual contention with per-trace ordered maps: the
/// arithmetic order ResidualContention promises, spelled out.
double MapResidual(const std::vector<TxnAccessTrace>& traces,
                   const RecordPartitioner& layout, const StatsCollector& stats,
                   double window) {
  double total = 0.0;
  for (const TxnAccessTrace& t : traces) {
    std::map<PartitionId, double> mass;
    std::map<RecordId, double> pc;
    for (const auto& [rid, write] : t.accesses) {
      (void)write;
      if (pc.contains(rid)) continue;
      const double likelihood = ContentionModel::ConflictLikelihood(
          stats.LambdaW(rid, window), stats.LambdaR(rid, window));
      pc[rid] = likelihood;
      mass[layout.PartitionOf(rid)] += likelihood;
    }
    PartitionId host = kInvalidPartition;
    double best = -1.0;
    for (const auto& [p, m] : mass) {
      if (m > best) {
        best = m;
        host = p;
      }
    }
    for (const auto& [rid, likelihood] : pc) {
      if (layout.PartitionOf(rid) != host) {
        total += likelihood * static_cast<double>(t.multiplicity);
      }
    }
  }
  return total;
}

TEST(ResidualContentionTest, ManyLayoutsEqualOneAtATime) {
  std::vector<TxnAccessTrace> traces = {
      // Duplicate accesses within one trace.
      Trace({{1, true}, {2, true}, {1, true}, {3, false}, {2, false}}),
      // Read-only records: zero likelihood.
      Trace({{6, false}, {7, false}}, 2),
      Trace({}),
  };
  // Random traces, accesses out of key order, keep the running totals
  // sensitive to the order of every addition.
  Rng rng(17);
  for (int i = 0; i < 80; ++i) {
    std::vector<std::pair<Key, bool>> keys;
    const uint64_t n = 2 + rng.Uniform(6);
    for (uint64_t j = 0; j < n; ++j) {
      keys.emplace_back(rng.Uniform(40), rng.Bernoulli(0.6));
    }
    traces.push_back(Trace(keys, 1 + rng.Uniform(3)));
    // Records 100 and 103 are only ever written together, so their
    // likelihoods are equal; the `tie` layout below splits them, and
    // their partitions' masses tie.
    if (i % 10 == 0) {
      traces.push_back(
          Trace({{103, true}, {101, false}, {100, true}}, 1 + i / 10));
    }
  }
  traces.push_back(Trace({{101, true}}));
  StatsCollector stats;
  for (const auto& t : traces) stats.ObserveTrace(t);
  ASSERT_EQ(stats.LambdaW({0, 100}, 1.0), stats.LambdaW({0, 103}, 1.0));

  HashPartitioner hash(3);
  LookupPartitioner a(std::make_unique<HashPartitioner>(3));
  LookupPartitioner b(std::make_unique<HashPartitioner>(3));
  for (Key k = 0; k < 40; ++k) {
    a.Assign({0, k}, static_cast<PartitionId>(k % 3));
    if (k % 4 != 0) b.Assign({0, k}, static_cast<PartitionId>(k / 14));
  }
  LookupPartitioner tie(std::make_unique<HashPartitioner>(3));
  tie.Assign({0, 100}, 0);
  tie.Assign({0, 101}, 1);
  tie.Assign({0, 103}, 2);

  const std::vector<const RecordPartitioner*> layouts = {&hash, &a, &b, &tie,
                                                         &a};
  for (double window : {1.0, 4.0, 16.0}) {
    const std::vector<double> all =
        ResidualContention(traces, layouts, stats, window);
    ASSERT_EQ(all.size(), layouts.size());
    for (size_t l = 0; l < layouts.size(); ++l) {
      const double alone =
          ResidualContention(traces, {layouts[l]}, stats, window)[0];
      EXPECT_EQ(all[l], alone) << "layout " << l << " window " << window;
      EXPECT_EQ(alone, MapResidual(traces, *layouts[l], stats, window))
          << "layout " << l << " window " << window;
      EXPECT_GT(alone, 0.0);
    }
  }
  EXPECT_TRUE(ResidualContention(traces, {}, stats, 16.0).empty());
}

// ---------- Figure 5 example ----------

/// The 7-record, 4-transaction workload of paper Figure 5. Record keys:
/// 1..7; t2 and t3 write the contended records, t1/t4 read.
std::vector<TxnAccessTrace> Figure5Workload() {
  std::vector<TxnAccessTrace> traces;
  // t1: reads 1, 2, 3 (account sums)
  traces.push_back(Trace({{1, false}, {2, false}, {3, false}}, 40));
  // t2: updates 3, 4, 6
  traces.push_back(Trace({{3, true}, {4, true}, {6, true}}, 40));
  // t3: updates 4, 5
  traces.push_back(Trace({{4, true}, {5, true}}, 40));
  // t4: reads 4, 7
  traces.push_back(Trace({{4, false}, {7, false}}, 40));
  return traces;
}

TEST(Figure5Test, Record4IsHottest) {
  StatsCollector stats;
  for (const auto& t : Figure5Workload()) stats.ObserveTrace(t);
  auto pcs = stats.ContentionLikelihoods(4.0);
  // Record 4 is written by t2 and t3 and read by t4: the darkest red.
  EXPECT_EQ(pcs[0].first, (RecordId{0, 4}));
}

TEST(Figure5Test, ChillerCoLocatesContendedRecords) {
  auto traces = Figure5Workload();
  ChillerPartitioner::Options opts;
  opts.k = 2;
  opts.epsilon = 0.4;  // the example wants a 4/3-ish split of 7 records
  opts.lock_window_txns = 4.0;
  opts.hot_threshold = 1e-3;
  auto out = ChillerPartitioner::Build(traces, opts);
  auto& part = *out.partitioner;
  // The contended cluster {3,4,5,6} of t2/t3 must be co-located so a single
  // inner region can hold every hot record (Figure 5c).
  const PartitionId p4 = part.PartitionOf({0, 4});
  EXPECT_EQ(part.PartitionOf({0, 3}), p4);
  EXPECT_EQ(part.PartitionOf({0, 5}), p4);
  EXPECT_EQ(part.PartitionOf({0, 6}), p4);
  // Records 4 (and friends) are flagged hot.
  EXPECT_TRUE(part.IsHot({0, 4}));
}

TEST(Figure5Test, SchismMinimizesDistributedTxns) {
  auto traces = Figure5Workload();
  auto schism = SchismPartitioner::Build(traces, {.k = 2, .epsilon = 0.4});
  auto chiller = ChillerPartitioner::Build(
      traces, {.k = 2, .epsilon = 0.4, .lock_window_txns = 4.0});
  const double schism_dist = DistributedRatio(traces, *schism.partitioner);
  const double chiller_dist = DistributedRatio(traces, *chiller.partitioner);
  // Schism's objective is fewer distributed transactions...
  EXPECT_LE(schism_dist, chiller_dist + 1e-9);
  // ...but Chiller achieves lower residual contention (the new objective).
  StatsCollector stats;
  for (const auto& t : traces) stats.ObserveTrace(t);
  const std::vector<double> cont = ResidualContention(
      traces, {schism.partitioner.get(), chiller.partitioner.get()}, stats,
      4.0);
  EXPECT_LE(cont[1], cont[0] + 1e-9);
}

// ---------- Pipelines ----------

std::vector<TxnAccessTrace> SkewedWorkload(uint64_t seed, int txns) {
  Rng rng(seed);
  ZipfGenerator zipf(1000, 0.9);
  std::vector<TxnAccessTrace> traces;
  for (int i = 0; i < txns; ++i) {
    TxnAccessTrace t;
    std::set<Key> keys;
    while (keys.size() < 5) keys.insert(zipf.Next(&rng));
    for (Key k : keys) t.accesses.emplace_back(RecordId{0, k}, true);
    traces.push_back(std::move(t));
  }
  return traces;
}

TEST(ChillerPartitionerTest, HotOnlyLookupIsSmall) {
  auto traces = SkewedWorkload(3, 2000);
  ChillerPartitioner::Options opts;
  opts.k = 4;
  opts.hot_threshold = 0.05;
  auto out = ChillerPartitioner::Build(traces, opts);
  // Hot-only lookup table (Section 4.4): far fewer entries than records.
  EXPECT_GT(out.report.lookup_entries, 0u);
  EXPECT_LT(out.report.lookup_entries, 200u);
  EXPECT_EQ(out.report.lookup_entries, out.report.hot_entries);
  // Schism must store every record it saw.
  auto schism = SchismPartitioner::Build(traces, {.k = 4});
  EXPECT_GT(schism.report.lookup_entries,
            5 * out.report.lookup_entries);
}

TEST(ChillerPartitionerTest, StoreColdGrowsLookup) {
  auto traces = SkewedWorkload(5, 1000);
  ChillerPartitioner::Options opts;
  opts.k = 2;
  opts.hot_threshold = 0.05;
  opts.store_cold_placements = true;
  auto out = ChillerPartitioner::Build(traces, opts);
  EXPECT_GT(out.report.lookup_entries, out.report.hot_entries);
}

TEST(ChillerPartitionerTest, ColdRecordsFallBackToHash) {
  auto traces = SkewedWorkload(7, 500);
  auto out = ChillerPartitioner::Build(traces, {.k = 4});
  // A record never observed must still resolve to a valid partition.
  for (Key k = 100000; k < 100100; ++k) {
    EXPECT_LT(out.partitioner->PartitionOf({0, k}), 4u);
    EXPECT_FALSE(out.partitioner->IsHot({0, k}));
  }
}

TEST(ChillerPartitionerTest, StarGraphSmallerThanSchism) {
  auto traces = SkewedWorkload(9, 2000);
  auto chiller = ChillerPartitioner::Build(traces, {.k = 4});
  auto schism = SchismPartitioner::Build(traces, {.k = 4});
  EXPECT_LT(chiller.report.graph_edges, schism.report.graph_edges);
}

TEST(ChillerPartitionerTest, HotRecordsSortedByContention) {
  auto traces = SkewedWorkload(11, 1000);
  auto out = ChillerPartitioner::Build(traces, {.k = 2});
  for (size_t i = 1; i < out.hot_records.size(); ++i) {
    EXPECT_GE(out.hot_records[i - 1].second, out.hot_records[i].second);
  }
}

TEST(MetricsTest, DistributedRatioBounds) {
  auto traces = SkewedWorkload(13, 300);
  HashPartitioner hash(4);
  const double r = DistributedRatio(traces, hash);
  EXPECT_GE(r, 0.0);
  EXPECT_LE(r, 1.0);
  HashPartitioner one(1);
  EXPECT_DOUBLE_EQ(DistributedRatio(traces, one), 0.0);
}

}  // namespace
}  // namespace chiller::partition
