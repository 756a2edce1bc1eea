#include "cyclops/graph/csr.hpp"

#include <algorithm>

namespace cyclops::graph {

namespace {
/// Builds one direction of CSR adjacency via counting sort on the key side.
void build_direction(const std::vector<Edge>& edges, VertexId n, bool by_src,
                     std::vector<std::size_t>& offsets, std::vector<Adj>& adj) {
  offsets.assign(static_cast<std::size_t>(n) + 1, 0);
  for (const Edge& e : edges) {
    ++offsets[(by_src ? e.src : e.dst) + 1];
  }
  for (std::size_t i = 1; i < offsets.size(); ++i) offsets[i] += offsets[i - 1];
  adj.resize(edges.size());
  std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
  for (const Edge& e : edges) {
    const VertexId key = by_src ? e.src : e.dst;
    const VertexId other = by_src ? e.dst : e.src;
    adj[cursor[key]++] = Adj{other, e.weight};
  }
  for (VertexId v = 0; v < n; ++v) {
    std::sort(adj.begin() + static_cast<std::ptrdiff_t>(offsets[v]),
              adj.begin() + static_cast<std::ptrdiff_t>(offsets[v + 1]), CanonicalAdjLess{});
  }
}
}  // namespace

Csr Csr::build(const EdgeList& edges) {
  Csr g;
  const VertexId n = edges.num_vertices();
  build_direction(edges.edges(), n, /*by_src=*/true, g.out_offsets_, g.out_adj_);
  build_direction(edges.edges(), n, /*by_src=*/false, g.in_offsets_, g.in_adj_);
  return g;
}

}  // namespace cyclops::graph
