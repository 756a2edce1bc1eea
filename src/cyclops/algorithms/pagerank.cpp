#include "cyclops/algorithms/pagerank.hpp"

#include <algorithm>
#include <cmath>

#include "cyclops/common/check.hpp"

namespace cyclops::algo {

namespace {

/// T(x) at `v`: the teleport share plus the damped sum of in-neighbors'
/// rank / out-degree.
double step_at(const graph::GraphStore& g, std::span<const double> rank, VertexId v,
               graph::AdjCursor& cur) {
  double sum = 0;
  for (const graph::Adj& a : g.in_neighbors(v, cur)) {
    const auto d = g.out_degree(a.neighbor);
    if (d > 0) sum += rank[a.neighbor] / static_cast<double>(d);
  }
  return (1.0 - kPageRankDamping) / static_cast<double>(g.num_vertices()) +
         kPageRankDamping * sum;
}

}  // namespace

std::vector<double> pagerank_reference(const graph::GraphStore& g, unsigned max_iterations,
                                       double tolerance) {
  const VertexId n = g.num_vertices();
  if (n == 0) return {};
  std::vector<double> rank(n, 1.0 / static_cast<double>(n));
  std::vector<double> next(n);
  graph::AdjCursor cur;
  for (unsigned it = 0; it < max_iterations; ++it) {
    double delta = 0;
    for (VertexId v = 0; v < n; ++v) {
      next[v] = step_at(g, rank, v, cur);
      delta = std::max(delta, std::abs(next[v] - rank[v]));
    }
    rank.swap(next);
    if (delta < tolerance) break;
  }
  return rank;
}

double pagerank_residual(const graph::GraphStore& g, std::span<const double> values) {
  CYCLOPS_CHECK(values.size() == g.num_vertices());
  graph::AdjCursor cur;
  double l1 = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    l1 += std::abs(step_at(g, values, v, cur) - values[v]);
  }
  return l1 / (1.0 - kPageRankDamping);
}

}  // namespace cyclops::algo
