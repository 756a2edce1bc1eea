#pragma once
// StreamStore — the out-of-core GraphStore backend (GraphD-style, see
// PAPERS.md): only O(|V|) index state stays resident (byte offsets + degrees
// per direction); the varint-compressed adjacency blob lives in an unlinked
// temp file and is paged through per-cursor read windows sized from the
// memory cap. Supersteps scan vertices in ascending order, so consecutive
// queries hit the same window and each superstep streams the blob once.
// Message buffering above the store's budget is counted as spilled bytes by
// the runtime's exchange accounting (MemoryReport::message_spill_bytes); no
// modeled clock charges it.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "cyclops/common/types.hpp"
#include "cyclops/graph/store.hpp"

namespace cyclops::graph {

class Csr;

class StreamStore final : public GraphStore {
 public:
  /// Spills the adjacency of a built Csr to disk. Throws std::runtime_error
  /// when the spill file cannot be created or written.
  StreamStore(const Csr& g, const StoreOptions& opts);
  StreamStore(const StreamStore&) = delete;
  StreamStore& operator=(const StreamStore&) = delete;
  ~StreamStore() override;

  [[nodiscard]] StoreKind kind() const noexcept override { return StoreKind::kStream; }
  [[nodiscard]] VertexId num_vertices() const noexcept override { return n_; }
  [[nodiscard]] std::size_t num_edges() const noexcept override {
    return static_cast<std::size_t>(m_);
  }
  [[nodiscard]] std::size_t out_degree(VertexId v) const noexcept override {
    return out_deg_[v];
  }
  [[nodiscard]] std::size_t in_degree(VertexId v) const noexcept override {
    return in_deg_[v];
  }
  [[nodiscard]] std::span<const Adj> out_neighbors(VertexId v,
                                                   AdjCursor& cur) const override;
  [[nodiscard]] std::span<const Adj> in_neighbors(VertexId v, AdjCursor& cur) const override;
  [[nodiscard]] StoreMemory memory() const noexcept override;
  [[nodiscard]] std::uint64_t message_budget_bytes() const noexcept override {
    return mem_cap_bytes_ / 2;
  }

  [[nodiscard]] std::uint64_t mem_cap_bytes() const noexcept { return mem_cap_bytes_; }
  [[nodiscard]] std::uint64_t file_bytes() const noexcept { return file_bytes_; }

 private:
  VertexId n_ = 0;
  std::uint64_t m_ = 0;
  bool inline_weights_ = false;
  double uniform_weight_ = 1.0;

  // Absolute byte offsets into the spill file, per direction (n+1 each).
  std::vector<std::uint64_t> out_off_, in_off_;
  std::vector<std::uint32_t> out_deg_, in_deg_;

  int fd_ = -1;
  std::uint64_t file_bytes_ = 0;
  std::uint64_t mem_cap_bytes_ = 0;
  std::uint64_t window_bytes_ = 0;

  [[nodiscard]] std::span<const Adj> fetch(VertexId v, AdjCursor& cur,
                                           const std::vector<std::uint64_t>& off,
                                           const std::vector<std::uint32_t>& deg) const;
};

}  // namespace cyclops::graph
