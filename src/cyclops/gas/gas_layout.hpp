#pragma once
// Runtime layout for the PowerGraph-style GAS engine (§2.3): a vertex-cut
// places each *edge* on one worker; every worker holding an edge incident to
// v keeps a local copy of v, one copy being the master. Gather and scatter
// run where the edges live; masters and mirrors exchange the 5-message
// pattern the paper counts (2 gather + 1 apply + 2 scatter per mirror).

#include <cstdint>
#include <vector>

#include "cyclops/common/types.hpp"
#include "cyclops/graph/store.hpp"
#include "cyclops/partition/vertex_cut.hpp"

namespace cyclops::gas {

/// Local copy index within one worker.
using Copy = std::uint32_t;

struct MirrorRef {
  WorkerId worker = 0;
  Copy copy = 0;
};

struct LocalEdge {
  Copy src = 0;
  Copy dst = 0;
  double weight = 1.0;
};

struct GasWorkerLayout {
  std::vector<VertexId> copy_globals;   ///< global id per local copy
  std::vector<std::uint8_t> is_master;  ///< per copy
  std::vector<LocalEdge> edges;         ///< edges placed on this worker

  /// Per-copy local in-edges/out-edges (CSR over copies, indices into edges).
  std::vector<std::size_t> in_offsets;
  std::vector<std::uint32_t> in_edge_ids;
  std::vector<std::size_t> out_offsets;
  std::vector<std::uint32_t> out_edge_ids;

  /// For master copies: mirror locations (CSR over copies; empty for mirrors).
  std::vector<std::size_t> mirror_offsets;
  std::vector<MirrorRef> mirrors;

  /// For mirror copies: the master's (worker, copy).
  std::vector<MirrorRef> master_of;  ///< per copy; self-reference for masters

  [[nodiscard]] Copy num_copies() const noexcept {
    return static_cast<Copy>(copy_globals.size());
  }
};

struct GasLayout {
  std::vector<GasWorkerLayout> workers;
  std::vector<MirrorRef> master_ref;  ///< global id -> master (worker, copy)
  std::uint64_t total_copies = 0;     ///< Σ copies (= replication numerator)
  double build_s = 0;

  [[nodiscard]] double replication_factor(VertexId n) const noexcept {
    return n > 0 ? static_cast<double>(total_copies) / static_cast<double>(n) : 1.0;
  }
};

/// Builds the layout from any store backend. Edges are visited in the store's
/// canonical enumeration order, which is also the order the vertex-cut
/// partitioner assigned owners in — p.edge_owner(i) refers to the i-th edge
/// of that enumeration.
[[nodiscard]] GasLayout build_gas_layout(const graph::GraphStore& g,
                                         const partition::VertexCutPartition& p);

}  // namespace cyclops::gas
