#include "cyclops/partition/multilevel.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "cyclops/common/check.hpp"
#include "cyclops/common/rng.hpp"

namespace cyclops::partition {

namespace {

/// Undirected weighted working graph used across coarsening levels.
struct WGraph {
  std::vector<std::size_t> offsets;  // size n+1
  std::vector<VertexId> adj;
  std::vector<double> eweight;
  std::vector<double> vweight;

  [[nodiscard]] VertexId n() const noexcept {
    return static_cast<VertexId>(vweight.size());
  }
  [[nodiscard]] std::size_t degree(VertexId v) const noexcept {
    return offsets[v + 1] - offsets[v];
  }
};

/// Symmetrizes a directed CSR into a weighted undirected graph, merging
/// parallel edges by summing weights (edge weight = #directed edges between
/// the endpoints; the partitioner should value heavily-connected pairs).
/// Two-pass counting sort: both directions of every non-loop edge land in
/// their source's row, then each row is sorted and equal neighbours merged.
WGraph symmetrize(const graph::GraphStore& g) {
  const VertexId n = g.num_vertices();
  graph::AdjCursor cur;
  std::vector<std::size_t> start(static_cast<std::size_t>(n) + 1, 0);
  for (VertexId v = 0; v < n; ++v) {
    for (const graph::Adj& a : g.out_neighbors(v, cur)) {
      if (a.neighbor == v) continue;
      ++start[v + 1];
      ++start[a.neighbor + 1];
    }
  }
  std::partial_sum(start.begin(), start.end(), start.begin());
  std::vector<VertexId> raw(start[n]);
  {
    std::vector<std::size_t> fill(start.begin(), start.end() - 1);
    for (VertexId v = 0; v < n; ++v) {
      for (const graph::Adj& a : g.out_neighbors(v, cur)) {
        if (a.neighbor == v) continue;
        raw[fill[v]++] = a.neighbor;
        raw[fill[a.neighbor]++] = v;
      }
    }
  }
  // Sort each row; a neighbour that starts a run of equal ids is one edge of
  // the run's length.
  const auto starts_run = [&](VertexId v, std::size_t e) {
    return e == start[v] || raw[e] != raw[e - 1];
  };
  std::size_t total = 0;
  for (VertexId v = 0; v < n; ++v) {
    std::sort(raw.begin() + static_cast<std::ptrdiff_t>(start[v]),
              raw.begin() + static_cast<std::ptrdiff_t>(start[v + 1]));
    for (std::size_t e = start[v]; e < start[v + 1]; ++e) total += starts_run(v, e) ? 1 : 0;
  }
  WGraph w;
  w.vweight.assign(n, 1.0);
  w.offsets.assign(static_cast<std::size_t>(n) + 1, 0);
  w.adj.reserve(total);
  w.eweight.reserve(total);
  for (VertexId v = 0; v < n; ++v) {
    for (std::size_t e = start[v]; e < start[v + 1]; ++e) {
      if (starts_run(v, e)) {
        w.adj.push_back(raw[e]);
        w.eweight.push_back(1.0);
      } else {
        w.eweight.back() += 1.0;
      }
    }
    w.offsets[v + 1] = w.adj.size();
  }
  return w;
}

/// Heavy-edge matching: pairs each unmatched vertex with its unmatched
/// neighbor of maximum edge weight. Returns coarse-vertex ids per vertex and
/// the number of coarse vertices.
std::pair<std::vector<VertexId>, VertexId> heavy_edge_matching(const WGraph& g, Rng& rng) {
  const VertexId n = g.n();
  std::vector<VertexId> order(n);
  std::iota(order.begin(), order.end(), VertexId{0});
  for (VertexId i = n; i > 1; --i) {  // Fisher–Yates
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }
  std::vector<VertexId> match(n, kInvalidVertex);
  for (VertexId v : order) {
    if (match[v] != kInvalidVertex) continue;
    VertexId best = kInvalidVertex;
    double best_w = -1.0;
    for (std::size_t e = g.offsets[v]; e < g.offsets[v + 1]; ++e) {
      const VertexId u = g.adj[e];
      if (u == v || match[u] != kInvalidVertex) continue;
      if (g.eweight[e] > best_w) {
        best_w = g.eweight[e];
        best = u;
      }
    }
    if (best != kInvalidVertex) {
      match[v] = best;
      match[best] = v;
    } else {
      match[v] = v;  // stays single
    }
  }
  std::vector<VertexId> coarse_id(n, kInvalidVertex);
  VertexId next = 0;
  for (VertexId v = 0; v < n; ++v) {
    if (coarse_id[v] != kInvalidVertex) continue;
    coarse_id[v] = next;
    if (match[v] != v) coarse_id[match[v]] = next;
    ++next;
  }
  return {std::move(coarse_id), next};
}

/// Contracts g along coarse_id into a graph with nc vertices. Each coarse
/// vertex walks its one or two fine members in increasing id order, merging
/// neighbours through a dense "last coarse vertex seen" marker and a
/// position into the row (METIS style), then sorts the row.
WGraph contract(const WGraph& g, const std::vector<VertexId>& coarse_id, VertexId nc) {
  // members[2c] < members[2c+1]: heavy_edge_matching numbers coarse vertices
  // by their smaller member, in increasing order.
  std::vector<VertexId> members(2 * static_cast<std::size_t>(nc), kInvalidVertex);
  for (VertexId v = 0; v < g.n(); ++v) {
    const std::size_t m = 2 * static_cast<std::size_t>(coarse_id[v]);
    members[members[m] == kInvalidVertex ? m : m + 1] = v;
  }
  WGraph c;
  c.vweight.assign(nc, 0.0);
  c.offsets.assign(static_cast<std::size_t>(nc) + 1, 0);
  c.adj.reserve(g.adj.size());
  c.eweight.reserve(g.adj.size());
  std::vector<VertexId> last(nc, kInvalidVertex);  // coarse vertex whose row holds cu
  std::vector<std::uint32_t> pos(nc);               // cu's index in that row
  std::vector<std::pair<VertexId, double>> row;
  for (VertexId cv = 0; cv < nc; ++cv) {
    row.clear();
    const std::size_t first = 2 * static_cast<std::size_t>(cv);
    for (std::size_t m = first; m < first + 2 && members[m] != kInvalidVertex; ++m) {
      const VertexId v = members[m];
      c.vweight[cv] += g.vweight[v];
      for (std::size_t e = g.offsets[v]; e < g.offsets[v + 1]; ++e) {
        const VertexId cu = coarse_id[g.adj[e]];
        if (cu == cv) continue;
        if (last[cu] != cv) {
          last[cu] = cv;
          pos[cu] = static_cast<std::uint32_t>(row.size());
          row.emplace_back(cu, 0.0);
        }
        row[pos[cu]].second += g.eweight[e];
      }
    }
    std::sort(row.begin(), row.end());
    for (const auto& [u, wt] : row) {
      c.adj.push_back(u);
      c.eweight.push_back(wt);
    }
    c.offsets[cv + 1] = c.adj.size();
  }
  c.adj.shrink_to_fit();
  c.eweight.shrink_to_fit();
  return c;
}

/// Greedy graph growing: grows k balanced regions by BFS from high-degree
/// seeds on the coarsest graph.
std::vector<WorkerId> initial_partition(const WGraph& g, WorkerId k, Rng& rng) {
  const VertexId n = g.n();
  std::vector<WorkerId> part(n, kInvalidWorker);
  const double total_weight =
      std::accumulate(g.vweight.begin(), g.vweight.end(), 0.0);
  const double target = total_weight / static_cast<double>(k);

  std::vector<VertexId> by_degree(n);
  std::iota(by_degree.begin(), by_degree.end(), VertexId{0});
  std::sort(by_degree.begin(), by_degree.end(), [&](VertexId a, VertexId b) {
    return g.degree(a) != g.degree(b) ? g.degree(a) > g.degree(b) : a < b;
  });

  std::size_t seed_cursor = 0;
  std::vector<double> part_weight(k, 0.0);
  for (WorkerId p = 0; p + 1 < k; ++p) {  // last part takes the remainder
    // Seed: heaviest-degree unassigned vertex.
    while (seed_cursor < n && part[by_degree[seed_cursor]] != kInvalidWorker) ++seed_cursor;
    if (seed_cursor >= n) break;
    std::vector<VertexId> frontier{by_degree[seed_cursor]};
    part[by_degree[seed_cursor]] = p;
    part_weight[p] += g.vweight[by_degree[seed_cursor]];
    std::size_t head = 0;
    while (part_weight[p] < target && head < frontier.size()) {
      const VertexId v = frontier[head++];
      for (std::size_t e = g.offsets[v]; e < g.offsets[v + 1] && part_weight[p] < target; ++e) {
        const VertexId u = g.adj[e];
        if (part[u] != kInvalidWorker) continue;
        part[u] = p;
        part_weight[p] += g.vweight[u];
        frontier.push_back(u);
      }
    }
    // If BFS exhausted a disconnected region before reaching target weight,
    // jump to a fresh random unassigned seed.
    while (part_weight[p] < target) {
      VertexId v = static_cast<VertexId>(rng.next_below(n));
      bool found = false;
      for (VertexId probe = 0; probe < n; ++probe) {
        const VertexId candidate = static_cast<VertexId>((v + probe) % n);
        if (part[candidate] == kInvalidWorker) {
          v = candidate;
          found = true;
          break;
        }
      }
      if (!found) break;
      part[v] = p;
      part_weight[p] += g.vweight[v];
      std::vector<VertexId> extra{v};
      std::size_t h2 = 0;
      while (part_weight[p] < target && h2 < extra.size()) {
        const VertexId x = extra[h2++];
        for (std::size_t e = g.offsets[x]; e < g.offsets[x + 1] && part_weight[p] < target;
             ++e) {
          const VertexId u = g.adj[e];
          if (part[u] != kInvalidWorker) continue;
          part[u] = p;
          part_weight[p] += g.vweight[u];
          extra.push_back(u);
        }
      }
    }
  }
  for (VertexId v = 0; v < n; ++v) {
    if (part[v] == kInvalidWorker) part[v] = k - 1;
  }
  return part;
}

/// True when v has a neighbour outside its part. An interior vertex has no
/// positive gain, so refinement skips it.
bool on_boundary(const WGraph& g, const std::vector<WorkerId>& part, VertexId v) {
  for (std::size_t e = g.offsets[v]; e < g.offsets[v + 1]; ++e) {
    if (part[g.adj[e]] != part[v]) return true;
  }
  return false;
}

/// One greedy boundary refinement sweep; returns number of moves. Shuffles
/// every vertex into a fresh random order but evaluates only those flagged in
/// `boundary`; a move re-derives the flag of the moved vertex and of its
/// neighbours, the only vertices whose flag it can change.
std::size_t refine_pass(const WGraph& g, std::vector<WorkerId>& part, WorkerId k,
                        std::vector<double>& part_weight, double max_weight,
                        std::vector<std::uint8_t>& boundary, Rng& rng) {
  const VertexId n = g.n();
  std::vector<VertexId> order(n);
  std::iota(order.begin(), order.end(), VertexId{0});
  for (VertexId i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }
  std::vector<double> gain(k, 0.0);
  std::vector<WorkerId> touched;
  std::size_t moves = 0;
  for (VertexId v : order) {
    if (!boundary[v]) continue;
    const WorkerId home = part[v];
    touched.clear();
    double internal = 0.0;
    for (std::size_t e = g.offsets[v]; e < g.offsets[v + 1]; ++e) {
      const WorkerId p = part[g.adj[e]];
      if (p == home) {
        internal += g.eweight[e];
      } else {
        if (gain[p] == 0.0) touched.push_back(p);
        gain[p] += g.eweight[e];
      }
    }
    WorkerId best = home;
    double best_gain = 0.0;
    for (WorkerId p : touched) {
      if (gain[p] - internal > best_gain &&
          part_weight[p] + g.vweight[v] <= max_weight) {
        best_gain = gain[p] - internal;
        best = p;
      }
      gain[p] = 0.0;
    }
    if (best != home) {
      part[v] = best;
      part_weight[home] -= g.vweight[v];
      part_weight[best] += g.vweight[v];
      ++moves;
      boundary[v] = on_boundary(g, part, v);
      for (std::size_t e = g.offsets[v]; e < g.offsets[v + 1]; ++e) {
        boundary[g.adj[e]] = on_boundary(g, part, g.adj[e]);
      }
    }
  }
  return moves;
}

}  // namespace

EdgeCutPartition MultilevelPartitioner::partition(const graph::GraphStore& g,
                                                  WorkerId num_parts) const {
  CYCLOPS_CHECK(num_parts > 0);
  const VertexId n = g.num_vertices();
  if (num_parts == 1 || n == 0) {
    return EdgeCutPartition(std::vector<WorkerId>(n, 0), std::max<WorkerId>(num_parts, 1));
  }

  Rng rng(config_.seed);

  // Phase 1: coarsen.
  std::vector<WGraph> levels;
  std::vector<std::vector<VertexId>> maps;  // maps[i]: level i vertex -> level i+1
  levels.push_back(symmetrize(g));
  const VertexId stop_at =
      std::max<VertexId>(config_.coarsen_target, 8 * static_cast<VertexId>(num_parts));
  while (levels.back().n() > stop_at) {
    auto [coarse_id, nc] = heavy_edge_matching(levels.back(), rng);
    if (static_cast<double>(nc) >
        config_.min_shrink * static_cast<double>(levels.back().n())) {
      break;  // matching stalled (e.g. star graphs) — stop coarsening
    }
    WGraph next = contract(levels.back(), coarse_id, nc);
    maps.push_back(std::move(coarse_id));
    levels.push_back(std::move(next));
  }

  // Phase 2: initial partition on the coarsest level.
  std::vector<WorkerId> part = initial_partition(levels.back(), num_parts, rng);

  // Phase 3: uncoarsen with refinement at every level.
  const double total_weight =
      std::accumulate(levels.front().vweight.begin(), levels.front().vweight.end(), 0.0);
  const double max_weight =
      (1.0 + config_.balance_epsilon) * total_weight / static_cast<double>(num_parts);
  for (std::size_t level = levels.size(); level-- > 0;) {
    const WGraph& wg = levels[level];
    std::vector<double> part_weight(num_parts, 0.0);
    std::vector<std::uint8_t> boundary(wg.n());
    for (VertexId v = 0; v < wg.n(); ++v) {
      part_weight[part[v]] += wg.vweight[v];
      boundary[v] = on_boundary(wg, part, v);
    }
    for (unsigned pass = 0; pass < config_.refine_passes; ++pass) {
      if (refine_pass(wg, part, num_parts, part_weight, max_weight, boundary, rng) == 0) break;
    }
    if (level > 0) {
      // Project to the finer level.
      const std::vector<VertexId>& map = maps[level - 1];
      std::vector<WorkerId> finer(levels[level - 1].n());
      for (VertexId v = 0; v < levels[level - 1].n(); ++v) finer[v] = part[map[v]];
      part = std::move(finer);
    }
  }
  return EdgeCutPartition(std::move(part), num_parts);
}

}  // namespace cyclops::partition
