#pragma once
// GraphStore — the frozen-graph abstraction every engine computes against.
// The paper's immutable distributed view never mutates topology mid-run, so
// the contract is read-only by construction: a store is built once (always
// from the canonical in-memory CSR, so adjacency enumeration order is
// bit-identical across backends) and then only answers degree/neighbor
// queries. Three backends implement it:
//   - Csr          in-memory pointer-free arrays (the original hot path)
//   - CompactCsr   delta/varint-compressed blob, degree-ordered internally,
//                  mmap-able versioned on-disk format (graph/compact_csr.hpp)
//   - StreamStore  O(|V|) resident index over an on-disk adjacency blob,
//                  paged per cursor under a memory cap (graph/stream_store.hpp)
// Neighbor queries go through an AdjCursor: caller-owned scratch that lets
// decoding/paging backends return spans without locks or shared mutable
// state. One cursor per thread; spans are valid until the cursor's next call.

#include <compare>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cyclops/common/types.hpp"

namespace cyclops::graph {

class EdgeList;

/// One adjacency entry. Kept identical across all store backends so spans
/// decode straight into engine loops.
struct Adj {
  VertexId neighbor = 0;
  double weight = 1.0;

  [[nodiscard]] bool operator==(const Adj&) const = default;
};

/// The canonical adjacency order: ascending neighbor id, then ascending
/// weight in IEEE total order (-0.0 before 0.0). It is a total order on
/// entries, so every sort of the same multiset of entries yields the same
/// sequence, parallel edges with distinct weights included.
struct CanonicalAdjLess {
  [[nodiscard]] bool operator()(const Adj& a, const Adj& b) const noexcept {
    if (a.neighbor != b.neighbor) return a.neighbor < b.neighbor;
    return std::strong_order(a.weight, b.weight) < 0;
  }
};

enum class StoreKind {
  kMemory,
  kCompact,
  kStream,
  kDelta,  ///< structural-sharing overlay over a base store (graph/delta_overlay.hpp)
};

[[nodiscard]] std::string_view store_kind_name(StoreKind kind) noexcept;

/// Parses "memory" | "compact" | "stream"; throws std::runtime_error on
/// anything else (CLI surfaces the message).
[[nodiscard]] StoreKind parse_store_kind(std::string_view name);

/// Byte footprint split the memory model reports per backend: what must stay
/// in RAM for the store to answer queries vs. what lives on disk and is only
/// paged/mapped through on demand.
struct StoreMemory {
  std::uint64_t resident_bytes = 0;
  std::uint64_t on_disk_bytes = 0;
};

/// Caller-owned scratch for neighbor queries. The in-memory CSR ignores it;
/// CompactCsr decodes into `scratch`; StreamStore additionally pages disk
/// windows into `window` and counts its own IO. Never shared across threads.
class AdjCursor {
 public:
  std::vector<Adj> scratch;

  // Stream-backend paging state + per-cursor IO counters.
  std::vector<std::uint8_t> window;
  std::uint64_t window_begin = 0;
  std::uint64_t window_len = 0;
  bool window_valid = false;
  std::uint64_t window_loads = 0;
  std::uint64_t bytes_read = 0;
};

class GraphStore {
 protected:
  // Concrete stores keep value semantics where they can (Csr is copyable);
  // the base is stateless, so copy/move through it is harmless. Slicing is
  // prevented by the pure virtuals.
  GraphStore() = default;
  GraphStore(const GraphStore&) = default;
  GraphStore& operator=(const GraphStore&) = default;

 public:
  virtual ~GraphStore() = default;

  [[nodiscard]] virtual StoreKind kind() const noexcept = 0;
  [[nodiscard]] virtual VertexId num_vertices() const noexcept = 0;
  [[nodiscard]] virtual std::size_t num_edges() const noexcept = 0;
  [[nodiscard]] virtual std::size_t out_degree(VertexId v) const noexcept = 0;
  [[nodiscard]] virtual std::size_t in_degree(VertexId v) const noexcept = 0;

  /// Out-/in-adjacency of `v`, in canonical order (CanonicalAdjLess:
  /// by neighbor id, then by weight). The span may point into
  /// `cur` and is invalidated by the cursor's next query. May throw on IO
  /// errors (stream backend).
  [[nodiscard]] virtual std::span<const Adj> out_neighbors(VertexId v,
                                                           AdjCursor& cur) const = 0;
  [[nodiscard]] virtual std::span<const Adj> in_neighbors(VertexId v,
                                                          AdjCursor& cur) const = 0;

  [[nodiscard]] virtual StoreMemory memory() const noexcept = 0;

  /// Bytes of in-flight messages the engine may buffer before the runtime's
  /// spill accounting starts charging disk traffic. 0 = unbounded (fully
  /// in-memory backends).
  [[nodiscard]] virtual std::uint64_t message_budget_bytes() const noexcept { return 0; }

  /// The single edge-enumeration order shared by the vertex-cut partitioner,
  /// its evaluator, and the GAS layout build: ascending source vertex, then
  /// canonical adjacency order. Edge index == enumeration position, so
  /// VertexCutPartition::edge_owner(i) is meaningful across all of them.
  template <typename Fn>
  void for_each_edge(Fn&& fn) const {
    AdjCursor cur;
    const VertexId n = num_vertices();
    for (VertexId v = 0; v < n; ++v) {
      for (const Adj& a : out_neighbors(v, cur)) fn(v, a.neighbor, a.weight);
    }
  }
};

/// Store selection threaded from the CLI / service / bench layers.
struct StoreOptions {
  StoreKind kind = StoreKind::kMemory;
  std::uint64_t mem_cap_bytes = 64ull << 20;  ///< stream backend budget
  std::string spill_dir;                      ///< empty = /tmp
};

/// Converts flag-level store selection (args::store_args) into StoreOptions;
/// throws std::runtime_error on an unknown kind name.
[[nodiscard]] StoreOptions make_store_options(std::string_view kind,
                                              std::uint64_t mem_cap_mb,
                                              std::string spill_dir = {});

/// Builds the canonical in-memory CSR from `edges`, then wraps or converts it
/// into the requested backend. All backends therefore present bit-identical
/// adjacency, which is what makes cross-store wire digests comparable.
[[nodiscard]] std::unique_ptr<const GraphStore> make_store(const EdgeList& edges,
                                                           const StoreOptions& opts = {});

}  // namespace cyclops::graph
