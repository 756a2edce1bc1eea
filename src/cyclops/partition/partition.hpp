#pragma once
// Edge-cut partitioning: every vertex is owned by exactly one worker
// (partition); edges spanning workers induce read-only replicas in Cyclops.
// Quality metrics here drive Figure 11 (replication factor) directly.

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "cyclops/common/types.hpp"
#include "cyclops/graph/store.hpp"

namespace cyclops::partition {

/// Owner assignment for every vertex.
class EdgeCutPartition {
 public:
  EdgeCutPartition() = default;
  EdgeCutPartition(std::vector<WorkerId> owner, WorkerId num_parts);

  [[nodiscard]] WorkerId owner(VertexId v) const noexcept { return owner_[v]; }
  [[nodiscard]] WorkerId num_parts() const noexcept { return num_parts_; }
  [[nodiscard]] VertexId num_vertices() const noexcept {
    return static_cast<VertexId>(owner_.size());
  }
  [[nodiscard]] const std::vector<WorkerId>& owners() const noexcept { return owner_; }

 private:
  std::vector<WorkerId> owner_;
  WorkerId num_parts_ = 0;
};

struct EdgeCutQuality {
  std::size_t cut_edges = 0;        ///< directed edges with owner(src) != owner(dst)
  double cut_fraction = 0;          ///< cut_edges / |E|
  double vertex_imbalance = 1.0;    ///< max/mean vertices per part
  double edge_imbalance = 1.0;      ///< max/mean out-edges per part
  /// Cyclops replication factor: average copies (master + replicas) per
  /// vertex, where a replica of v exists on worker p != owner(v) iff v has an
  /// out-neighbor owned by p (the replica both serves reads and performs
  /// distributed activation — §3.2/§3.4).
  double replication_factor = 1.0;
  std::size_t total_replicas = 0;
};

[[nodiscard]] EdgeCutQuality evaluate(const graph::GraphStore& g, const EdgeCutPartition& p);

/// Interface implemented by hash and multilevel partitioners.
class EdgeCutPartitioner {
 public:
  virtual ~EdgeCutPartitioner() = default;
  [[nodiscard]] virtual EdgeCutPartition partition(const graph::GraphStore& g,
                                                   WorkerId num_parts) const = 0;
  [[nodiscard]] virtual const char* name() const noexcept = 0;
};

/// The edge-cut partitioners a run or a service snapshot can name.
inline constexpr std::string_view kEdgeCutPartitioners = "hash, ldg, multilevel";

/// The partitioner called `name` (multilevel with its default config), or
/// null when no partitioner has that name.
[[nodiscard]] std::unique_ptr<EdgeCutPartitioner> make_edge_cut_partitioner(
    std::string_view name);

}  // namespace cyclops::partition
