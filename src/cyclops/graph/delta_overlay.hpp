#pragma once
// DeltaOverlay — structural-sharing store backend for mutation epochs.
//
// An overlay layers a small mutated-adjacency patch over the previous
// epoch's immutable base store instead of copying it: only vertices whose
// adjacency actually changed get materialized (re-filtered + re-merged)
// adjacency arrays; every other vertex delegates straight to the base.
// Publication of a mutation epoch therefore allocates O(touched adjacency),
// not O(|E|) — the structural-sharing half of ROADMAP item 3.
//
// Invariants:
//   - The base store is *never* mutated; the overlay only reads it. The
//     caller must keep the base alive for the overlay's lifetime (the
//     service layer pins the base epoch's Snapshot via SnapshotRef).
//   - Enumeration order stays canonical (CanonicalAdjLess: neighbor id,
//     then weight), so partitions, layouts, and wire digests remain
//     comparable with a flat rebuild of the mutated graph.
//   - Overlays chain (an overlay's base may itself be an overlay); `depth()`
//     reports the chain length so the publication path can trigger
//     compaction back to a flat store before lookup cost degrades.
//
// Remove semantics match TopologyDelta::Canonical: a remove names a
// (src, dst) pair and erases every matching edge regardless of weight.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "cyclops/graph/edge_list.hpp"
#include "cyclops/graph/store.hpp"

namespace cyclops::graph {

class DeltaOverlay final : public GraphStore {
 public:
  /// Builds the overlay for canonical `adds`/`removes` over `base`.
  /// `base` must outlive the overlay and must never change underneath it.
  DeltaOverlay(const GraphStore& base, const std::vector<Edge>& adds,
               const std::vector<Edge>& removes);

  [[nodiscard]] StoreKind kind() const noexcept override { return StoreKind::kDelta; }
  [[nodiscard]] VertexId num_vertices() const noexcept override { return n_; }
  [[nodiscard]] std::size_t num_edges() const noexcept override { return m_; }
  [[nodiscard]] std::size_t out_degree(VertexId v) const noexcept override;
  [[nodiscard]] std::size_t in_degree(VertexId v) const noexcept override;
  [[nodiscard]] std::span<const Adj> out_neighbors(VertexId v, AdjCursor& cur) const override;
  [[nodiscard]] std::span<const Adj> in_neighbors(VertexId v, AdjCursor& cur) const override;

  /// Overlay-only footprint: the patch arrays this epoch newly allocated.
  /// The shared base is accounted by the epoch that built it — that split is
  /// exactly the o(|E|) publication-cost claim bench_paper's ING panel
  /// measures.
  [[nodiscard]] StoreMemory memory() const noexcept override;
  [[nodiscard]] std::uint64_t message_budget_bytes() const noexcept override {
    return base_->message_budget_bytes();
  }

  [[nodiscard]] const GraphStore& base() const noexcept { return *base_; }
  /// Overlay chain length: 1 over a flat base, base.depth()+1 over an overlay.
  [[nodiscard]] std::uint32_t depth() const noexcept { return depth_; }
  /// Adjacency entries held by the patch (both directions).
  [[nodiscard]] std::size_t overlay_entries() const noexcept {
    return out_.adj.size() + in_.adj.size();
  }

  /// Flattens the overlay view into a fresh edge list (canonical enumeration
  /// order) — the compaction path back to a flat store.
  [[nodiscard]] EdgeList materialize() const;

 private:
  // One direction of the patch: touched vertex ids (sorted) + a mini-CSR of
  // their full re-merged adjacency.
  struct Patch {
    std::vector<VertexId> verts;
    std::vector<std::size_t> offsets;  // verts.size() + 1
    std::vector<Adj> adj;

    [[nodiscard]] std::ptrdiff_t find(VertexId v) const noexcept;
    [[nodiscard]] std::span<const Adj> slice(std::ptrdiff_t i) const noexcept {
      return {adj.data() + offsets[static_cast<std::size_t>(i)],
              offsets[static_cast<std::size_t>(i) + 1] - offsets[static_cast<std::size_t>(i)]};
    }
  };

  const GraphStore* base_;
  VertexId n_ = 0;
  std::size_t m_ = 0;
  std::uint32_t depth_ = 1;
  Patch out_;
  Patch in_;

  [[nodiscard]] static Patch build_patch(const GraphStore& base, bool out_side,
                                         const std::vector<Edge>& adds,
                                         const std::vector<Edge>& removes, VertexId n,
                                         std::size_t& removed_count);
};

}  // namespace cyclops::graph
