#pragma once
// Metis-like multilevel k-way edge-cut partitioner (§4.2 uses Metis): the
// classic three phases — heavy-edge-matching coarsening, greedy region-growing
// initial partition on the coarsest graph, and greedy boundary (FM-style)
// refinement during uncoarsening. Deterministic in the configured seed.
//
// No hash maps: the input is symmetrized by a counting sort, contraction
// merges each coarse vertex's neighbours through a dense "last seen" marker
// (METIS style), and refinement evaluates only boundary vertices — those
// with a neighbour in another part — keeping per-level boundary flags
// exact across moves. Every random sweep still draws the same numbers.

#include <cstdint>

#include "cyclops/partition/partition.hpp"

namespace cyclops::partition {

struct MultilevelConfig {
  std::uint64_t seed = 42;
  double balance_epsilon = 0.05;   ///< part weight may exceed average by this
  unsigned refine_passes = 4;      ///< boundary refinement sweeps per level
  VertexId coarsen_target = 256;   ///< stop coarsening near max(this, 8*k) vertices
  double min_shrink = 0.95;        ///< stop if a level shrinks less than this
};

class MultilevelPartitioner final : public EdgeCutPartitioner {
 public:
  explicit MultilevelPartitioner(MultilevelConfig config = {}) : config_(config) {}

  [[nodiscard]] EdgeCutPartition partition(const graph::GraphStore& g,
                                           WorkerId num_parts) const override;
  [[nodiscard]] const char* name() const noexcept override { return "multilevel"; }

 private:
  MultilevelConfig config_;
};

}  // namespace cyclops::partition
