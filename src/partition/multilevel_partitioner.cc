#include "partition/multilevel_partitioner.h"

#include <algorithm>
#include <memory_resource>
#include <numeric>
#include <unordered_map>

#include "common/logging.h"
#include "common/random.h"

namespace chiller::partition {

namespace {

/// One level of the multilevel hierarchy.
struct Level {
  Graph graph;
  /// coarse_of[v] = vertex in the next-coarser graph that v contracted into.
  std::vector<uint32_t> coarse_of;
};

/// Heavy-edge matching: random visit order; each unmatched vertex matches
/// its unmatched neighbor with the heaviest connecting edge.
std::vector<uint32_t> HeavyEdgeMatching(const Graph& g, Rng* rng) {
  const size_t n = g.num_vertices();
  std::vector<uint32_t> match(n, UINT32_MAX);
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::vector<uint32_t> shuffled(order.begin(), order.end());
  for (size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng->Uniform(i)]);
  }
  for (uint32_t v : shuffled) {
    if (match[v] != UINT32_MAX) continue;
    uint32_t best = v;  // self-match = stays single
    double best_w = -1.0;
    for (const auto& [u, w] : g.adj[v]) {
      if (u != v && match[u] == UINT32_MAX && w > best_w) {
        best = u;
        best_w = w;
      }
    }
    match[v] = best;
    match[best] = v;
  }
  return match;
}

/// Contracts matched pairs into a coarser graph.
Level Coarsen(const Graph& g, Rng* rng) {
  const size_t n = g.num_vertices();
  const auto match = HeavyEdgeMatching(g, rng);

  Level level;
  level.coarse_of.assign(n, UINT32_MAX);
  uint32_t next = 0;
  for (uint32_t v = 0; v < n; ++v) {
    if (level.coarse_of[v] != UINT32_MAX) continue;
    level.coarse_of[v] = next;
    const uint32_t m = match[v];
    if (m != v && m != UINT32_MAX) level.coarse_of[m] = next;
    ++next;
  }

  Graph& cg = level.graph;
  cg.adj.resize(next);
  cg.vwgt.assign(next, 0.0);
  for (uint32_t v = 0; v < n; ++v) {
    cg.vwgt[level.coarse_of[v]] += g.vwgt[v];
  }
  // Merge adjacency, accumulating parallel edges. The map's nodes live in a
  // per-call arena. Its iteration order sets the coarse adjacency order,
  // which breaks weight ties in HeavyEdgeMatching and InitialPartition; in
  // libstdc++ that order depends only on the sequence of distinct keys
  // inserted (not on the allocator), so the map must keep its growth
  // policy: no reserve.
  std::pmr::monotonic_buffer_resource arena;
  std::pmr::unordered_map<uint64_t, double> merged(&arena);
  for (uint32_t v = 0; v < n; ++v) {
    const uint32_t cv = level.coarse_of[v];
    for (const auto& [u, w] : g.adj[v]) {
      const uint32_t cu = level.coarse_of[u];
      if (cu == cv) continue;  // contracted edge disappears
      if (cv < cu) {
        merged[(static_cast<uint64_t>(cv) << 32) | cu] += w;
      }
    }
  }
  for (const auto& [key, w] : merged) {
    const uint32_t a = static_cast<uint32_t>(key >> 32);
    const uint32_t b = static_cast<uint32_t>(key & 0xffffffffu);
    cg.adj[a].emplace_back(b, w);
    cg.adj[b].emplace_back(a, w);
  }
  return level;
}

/// Greedy region growing for the initial k-way partition of the coarsest
/// graph. Grows each region by repeatedly absorbing the frontier vertex
/// with the strongest connection until the region reaches its weight share.
std::vector<uint32_t> InitialPartition(const Graph& g, uint32_t k, Rng* rng) {
  const size_t n = g.num_vertices();
  std::vector<uint32_t> part(n, UINT32_MAX);
  const double total = g.TotalVertexWeight();
  const double target = total / k;

  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  for (size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng->Uniform(i)]);
  }
  size_t cursor = 0;

  for (uint32_t p = 0; p + 1 < k; ++p) {
    // Seed with the first unassigned vertex.
    while (cursor < n && part[order[cursor]] != UINT32_MAX) ++cursor;
    if (cursor == n) break;
    double load = 0.0;
    std::vector<uint32_t> frontier{order[cursor]};
    part[order[cursor]] = p;
    load += g.vwgt[order[cursor]];
    while (load < target && !frontier.empty()) {
      // Strongest-connected unassigned neighbor of the region.
      uint32_t best = UINT32_MAX;
      double best_w = -1.0;
      for (uint32_t v : frontier) {
        for (const auto& [u, w] : g.adj[v]) {
          if (part[u] == UINT32_MAX && w > best_w) {
            best = u;
            best_w = w;
          }
        }
      }
      if (best == UINT32_MAX) {
        // Region disconnected from remaining vertices: jump elsewhere.
        while (cursor < n && part[order[cursor]] != UINT32_MAX) ++cursor;
        if (cursor == n) break;
        best = order[cursor];
      }
      part[best] = p;
      load += g.vwgt[best];
      frontier.push_back(best);
      if (frontier.size() > 64) {  // keep the frontier scan bounded
        frontier.erase(frontier.begin(), frontier.begin() + 32);
      }
    }
  }
  for (uint32_t v = 0; v < n; ++v) {
    if (part[v] == UINT32_MAX) part[v] = k - 1;
  }
  return part;
}

/// One boundary-refinement pass. Moves vertices to the neighboring
/// partition with the highest positive gain, respecting the balance bound.
/// Returns total gain achieved.
double RefinePass(const Graph& g, uint32_t k, double max_load,
                  std::vector<uint32_t>* part, std::vector<double>* loads) {
  const size_t n = g.num_vertices();
  double total_gain = 0.0;
  std::vector<double> conn(k, 0.0);
  for (uint32_t v = 0; v < n; ++v) {
    if (g.adj[v].empty()) continue;
    std::fill(conn.begin(), conn.end(), 0.0);
    for (const auto& [u, w] : g.adj[v]) conn[(*part)[u]] += w;
    const uint32_t own = (*part)[v];
    uint32_t best = own;
    double best_gain = 0.0;
    for (uint32_t p = 0; p < k; ++p) {
      if (p == own) continue;
      const double gain = conn[p] - conn[own];
      if (gain > best_gain &&
          (*loads)[p] + g.vwgt[v] <= max_load) {
        best = p;
        best_gain = gain;
      }
    }
    if (best != own) {
      (*part)[v] = best;
      (*loads)[own] -= g.vwgt[v];
      (*loads)[best] += g.vwgt[v];
      total_gain += best_gain;
    }
  }
  return total_gain;
}

/// Moves vertices out of overloaded partitions until the balance bound
/// holds (cheapest-cut-damage first among the overloaded partition's
/// vertices, scanned in index order for determinism).
void ForceBalance(const Graph& g, uint32_t k, double max_load,
                  std::vector<uint32_t>* part, std::vector<double>* loads) {
  for (uint32_t p = 0; p < k; ++p) {
    int guard = 0;
    while ((*loads)[p] > max_load && guard++ < 10000) {
      // Find the lightest-loaded partition as the target.
      uint32_t target = 0;
      for (uint32_t q = 1; q < k; ++q) {
        if ((*loads)[q] < (*loads)[target]) target = q;
      }
      if (target == p) break;
      // Move the first vertex that has weight and tolerable damage.
      bool moved = false;
      for (uint32_t v = 0; v < g.num_vertices(); ++v) {
        if ((*part)[v] != p || g.vwgt[v] == 0.0) continue;
        (*part)[v] = target;
        (*loads)[p] -= g.vwgt[v];
        (*loads)[target] += g.vwgt[v];
        moved = true;
        break;
      }
      if (!moved) break;
    }
  }
}

}  // namespace

double MultilevelPartitioner::CutWeight(
    const Graph& graph, const std::vector<uint32_t>& assignment) {
  double cut = 0.0;
  for (uint32_t v = 0; v < graph.num_vertices(); ++v) {
    for (const auto& [u, w] : graph.adj[v]) {
      if (v < u && assignment[v] != assignment[u]) cut += w;
    }
  }
  return cut;
}

std::vector<double> MultilevelPartitioner::Loads(
    const Graph& graph, const std::vector<uint32_t>& assignment, uint32_t k) {
  std::vector<double> loads(k, 0.0);
  for (uint32_t v = 0; v < graph.num_vertices(); ++v) {
    loads[assignment[v]] += graph.vwgt[v];
  }
  return loads;
}

MultilevelPartitioner::Result MultilevelPartitioner::Partition(
    const Graph& graph, const Options& options) {
  CHILLER_CHECK(options.k >= 1);
  Result result;
  const size_t n = graph.num_vertices();
  if (options.k == 1 || n == 0) {
    result.assignment.assign(n, 0);
    result.avg_load = result.max_load = graph.TotalVertexWeight();
    return result;
  }

  Rng rng(options.seed);
  const uint32_t stop_at =
      std::max(options.coarsen_to, 16 * options.k);

  // Phase 1: coarsen.
  std::vector<Level> levels;
  const Graph* current = &graph;
  while (current->num_vertices() > stop_at) {
    Level level = Coarsen(*current, &rng);
    const size_t coarse_n = level.graph.num_vertices();
    if (coarse_n > current->num_vertices() * 95 / 100) break;  // stalled
    levels.push_back(std::move(level));
    current = &levels.back().graph;
  }
  result.levels = static_cast<uint32_t>(levels.size());

  // Phase 2: initial partition of the coarsest graph.
  std::vector<uint32_t> part = InitialPartition(*current, options.k, &rng);

  const double total = graph.TotalVertexWeight();
  const double avg = total / options.k;
  const double max_load = (1.0 + options.epsilon) * avg;

  // Phase 3: uncoarsen with refinement at every level.
  auto refine = [&](const Graph& g, std::vector<uint32_t>* p) {
    auto loads = Loads(g, *p, options.k);
    ForceBalance(g, options.k, max_load, p, &loads);
    for (uint32_t pass = 0; pass < options.refine_passes; ++pass) {
      if (RefinePass(g, options.k, max_load, p, &loads) <= 0.0) break;
    }
  };

  refine(*current, &part);
  for (size_t li = levels.size(); li-- > 0;) {
    const Graph& finer =
        li == 0 ? graph : levels[li - 1].graph;
    std::vector<uint32_t> finer_part(finer.num_vertices());
    for (uint32_t v = 0; v < finer.num_vertices(); ++v) {
      finer_part[v] = part[levels[li].coarse_of[v]];
    }
    part = std::move(finer_part);
    refine(finer, &part);
  }

  auto loads = Loads(graph, part, options.k);
  result.assignment = std::move(part);
  result.cut_weight = CutWeight(graph, result.assignment);
  result.avg_load = avg;
  result.max_load = *std::max_element(loads.begin(), loads.end());
  return result;
}

}  // namespace chiller::partition
