#include "cyclops/graph/delta_overlay.hpp"

#include <algorithm>
#include <utility>

#include "cyclops/common/check.hpp"

namespace cyclops::graph {

namespace {

using Pair = std::pair<VertexId, VertexId>;

/// (key, other) pairs for one direction, sorted for binary search.
std::vector<Pair> pair_index(const std::vector<Edge>& removes, bool out_side) {
  std::vector<Pair> idx;
  idx.reserve(removes.size());
  for (const Edge& e : removes) {
    idx.emplace_back(out_side ? e.src : e.dst, out_side ? e.dst : e.src);
  }
  std::sort(idx.begin(), idx.end());
  return idx;
}

}  // namespace

std::ptrdiff_t DeltaOverlay::Patch::find(VertexId v) const noexcept {
  auto it = std::lower_bound(verts.begin(), verts.end(), v);
  if (it == verts.end() || *it != v) return -1;
  return it - verts.begin();
}

DeltaOverlay::Patch DeltaOverlay::build_patch(const GraphStore& base, bool out_side,
                                              const std::vector<Edge>& adds,
                                              const std::vector<Edge>& removes, VertexId n,
                                              std::size_t& removed_count) {
  const std::vector<Pair> removed = pair_index(removes, out_side);

  Patch p;
  for (const Edge& e : adds) p.verts.push_back(out_side ? e.src : e.dst);
  for (const Edge& e : removes) {
    const VertexId key = out_side ? e.src : e.dst;
    if (key < n) p.verts.push_back(key);  // removes never grow the vertex set
  }
  std::sort(p.verts.begin(), p.verts.end());
  p.verts.erase(std::unique(p.verts.begin(), p.verts.end()), p.verts.end());

  AdjCursor cur;
  p.offsets.reserve(p.verts.size() + 1);
  p.offsets.push_back(0);
  for (const VertexId v : p.verts) {
    const std::size_t start = p.adj.size();
    if (v < base.num_vertices()) {
      const std::span<const Adj> prior =
          out_side ? base.out_neighbors(v, cur) : base.in_neighbors(v, cur);
      for (const Adj& a : prior) {
        if (std::binary_search(removed.begin(), removed.end(), Pair{v, a.neighbor})) {
          ++removed_count;
        } else {
          p.adj.push_back(a);
        }
      }
    }
    for (const Edge& e : adds) {
      if ((out_side ? e.src : e.dst) == v) {
        p.adj.push_back(Adj{out_side ? e.dst : e.src, e.weight});
      }
    }
    // Re-sort in the canonical total order, so the merged adjacency equals a
    // flat rebuild's entry for entry, parallel edges included.
    std::sort(p.adj.begin() + static_cast<std::ptrdiff_t>(start), p.adj.end(),
              CanonicalAdjLess{});
    p.offsets.push_back(p.adj.size());
  }
  return p;
}

DeltaOverlay::DeltaOverlay(const GraphStore& base, const std::vector<Edge>& adds,
                           const std::vector<Edge>& removes)
    : base_(&base) {
  n_ = base.num_vertices();
  for (const Edge& e : adds) {
    CYCLOPS_CHECK(e.src != kInvalidVertex && e.dst != kInvalidVertex);
    n_ = std::max(n_, std::max(e.src, e.dst) + 1);
  }
  if (const auto* prior = dynamic_cast<const DeltaOverlay*>(&base)) {
    depth_ = prior->depth() + 1;
  }

  std::size_t removed_out = 0;
  std::size_t removed_in = 0;
  out_ = build_patch(base, /*out_side=*/true, adds, removes, n_, removed_out);
  in_ = build_patch(base, /*out_side=*/false, adds, removes, n_, removed_in);
  CYCLOPS_CHECK(removed_out == removed_in);

  m_ = base.num_edges() - removed_out + adds.size();
}

std::size_t DeltaOverlay::out_degree(VertexId v) const noexcept {
  const std::ptrdiff_t i = out_.find(v);
  if (i >= 0) return out_.slice(i).size();
  return v < base_->num_vertices() ? base_->out_degree(v) : 0;
}

std::size_t DeltaOverlay::in_degree(VertexId v) const noexcept {
  const std::ptrdiff_t i = in_.find(v);
  if (i >= 0) return in_.slice(i).size();
  return v < base_->num_vertices() ? base_->in_degree(v) : 0;
}

std::span<const Adj> DeltaOverlay::out_neighbors(VertexId v, AdjCursor& cur) const {
  const std::ptrdiff_t i = out_.find(v);
  if (i >= 0) return out_.slice(i);
  if (v < base_->num_vertices()) return base_->out_neighbors(v, cur);
  return {};
}

std::span<const Adj> DeltaOverlay::in_neighbors(VertexId v, AdjCursor& cur) const {
  const std::ptrdiff_t i = in_.find(v);
  if (i >= 0) return in_.slice(i);
  if (v < base_->num_vertices()) return base_->in_neighbors(v, cur);
  return {};
}

StoreMemory DeltaOverlay::memory() const noexcept {
  auto patch_bytes = [](const Patch& p) {
    return p.verts.size() * sizeof(VertexId) + p.offsets.size() * sizeof(std::size_t) +
           p.adj.size() * sizeof(Adj);
  };
  StoreMemory m;
  m.resident_bytes = patch_bytes(out_) + patch_bytes(in_);
  return m;
}

EdgeList DeltaOverlay::materialize() const {
  EdgeList out(n_);
  for_each_edge([&](VertexId src, VertexId dst, double w) { out.add(src, dst, w); });
  return out;
}

}  // namespace cyclops::graph
