#include "cyclops/partition/partition.hpp"

#include <algorithm>

#include "cyclops/common/check.hpp"
#include "cyclops/common/stats.hpp"
#include "cyclops/partition/hash.hpp"
#include "cyclops/partition/ldg.hpp"
#include "cyclops/partition/multilevel.hpp"

namespace cyclops::partition {

EdgeCutPartition::EdgeCutPartition(std::vector<WorkerId> owner, WorkerId num_parts)
    : owner_(std::move(owner)), num_parts_(num_parts) {
  CYCLOPS_CHECK(num_parts_ > 0);
  for (WorkerId w : owner_) CYCLOPS_CHECK(w < num_parts_);
}

std::unique_ptr<EdgeCutPartitioner> make_edge_cut_partitioner(std::string_view name) {
  if (name == "hash") return std::make_unique<HashPartitioner>();
  if (name == "ldg") return std::make_unique<LdgPartitioner>();
  if (name == "multilevel") return std::make_unique<MultilevelPartitioner>();
  return nullptr;
}

EdgeCutQuality evaluate(const graph::GraphStore& g, const EdgeCutPartition& p) {
  CYCLOPS_CHECK(g.num_vertices() == p.num_vertices());
  EdgeCutQuality q;
  const WorkerId parts = p.num_parts();
  std::vector<double> vertices_per_part(parts, 0);
  std::vector<double> edges_per_part(parts, 0);
  // Scratch bitmap reused per-vertex to count distinct remote target workers.
  std::vector<Superstep> seen(parts, 0);
  Superstep epoch = 0;
  graph::AdjCursor cur;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const WorkerId home = p.owner(v);
    vertices_per_part[home] += 1;
    edges_per_part[home] += static_cast<double>(g.out_degree(v));
    ++epoch;
    for (const graph::Adj& a : g.out_neighbors(v, cur)) {
      const WorkerId w = p.owner(a.neighbor);
      if (w != home) {
        ++q.cut_edges;
        if (seen[w] != epoch) {
          seen[w] = epoch;
          ++q.total_replicas;
        }
      }
    }
  }
  q.cut_fraction =
      g.num_edges() > 0 ? static_cast<double>(q.cut_edges) / static_cast<double>(g.num_edges())
                        : 0.0;
  q.vertex_imbalance = imbalance(vertices_per_part);
  q.edge_imbalance = imbalance(edges_per_part);
  q.replication_factor =
      g.num_vertices() > 0
          ? 1.0 + static_cast<double>(q.total_replicas) / static_cast<double>(g.num_vertices())
          : 1.0;
  return q;
}

}  // namespace cyclops::partition
