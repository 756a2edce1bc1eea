#pragma once
// Construction of the distributed immutable view (§3.2–§3.4, §4.3): per
// worker, the master vertices it owns, the read-only replicas created for
// edges spanning workers, in-edge references resolved to local memory slots,
// local out-edges used for distributed activation, and each master's list of
// replica locations for the unidirectional sync message.
//
// Replica rule: a replica of v exists on worker p != owner(v) iff v has an
// out-neighbor owned by p. That single replica serves both purposes — it is
// read by p's local masters that have v as an in-neighbor, and it performs
// local activation of v's out-neighbors on p (no duplicate replicas and no
// replica→master traffic, unlike GraphLab's ghosts, §2.3).

#include <cstdint>
#include <vector>

#include "cyclops/common/types.hpp"
#include "cyclops/graph/store.hpp"
#include "cyclops/partition/partition.hpp"

namespace cyclops::core {

/// Index of a shared-data slot within one worker: slots [0, num_masters) are
/// masters (in masters[] order), [num_masters, num_masters+num_replicas) are
/// replicas (sorted by (master's owner, vertex id) for delivery locality,
/// §4.1).
using Slot = std::uint32_t;

/// Where one replica of a master lives.
struct ReplicaRef {
  WorkerId worker = 0;
  Slot slot = 0;
};

/// Reference to a neighbor's shared data plus the edge weight.
struct SlotAdj {
  Slot slot = 0;
  double weight = 1.0;
};

struct WorkerLayout {
  std::vector<VertexId> masters;          ///< global ids owned, ascending
  std::vector<VertexId> replica_globals;  ///< global id per replica slot
  std::vector<WorkerId> replica_owner;    ///< owner worker per replica slot

  /// In-edges per master (CSR over local master index): the immutable view.
  std::vector<std::size_t> in_offsets;
  std::vector<SlotAdj> in_adj;

  /// Local out-edges per slot (masters AND replicas): local master indices
  /// this slot activates (CSR over slot).
  std::vector<std::size_t> lout_offsets;
  std::vector<std::uint32_t> lout_adj;

  /// Replica targets per master (CSR over local master index).
  std::vector<std::size_t> rep_offsets;
  std::vector<ReplicaRef> rep_targets;

  [[nodiscard]] std::uint32_t num_masters() const noexcept {
    return static_cast<std::uint32_t>(masters.size());
  }
  [[nodiscard]] std::uint32_t num_replicas() const noexcept {
    return static_cast<std::uint32_t>(replica_globals.size());
  }
  [[nodiscard]] std::uint32_t num_slots() const noexcept {
    return num_masters() + num_replicas();
  }
  [[nodiscard]] VertexId slot_global(Slot s) const noexcept {
    return s < num_masters() ? masters[s] : replica_globals[s - num_masters()];
  }
};

struct Layout {
  std::vector<WorkerLayout> workers;
  std::vector<std::uint32_t> master_index;  ///< global id -> index in its owner's masters
  std::uint64_t total_replicas = 0;

  /// Ingress-phase time breakdown (Figure 13(1)): replica discovery vs
  /// structure initialization.
  double replicate_s = 0;
  double init_s = 0;

  [[nodiscard]] double replication_factor(VertexId n) const noexcept {
    return n > 0 ? 1.0 + static_cast<double>(total_replicas) / static_cast<double>(n) : 1.0;
  }
};

/// Builds the full distributed immutable view for the given edge-cut
/// partition. Deterministic.
[[nodiscard]] Layout build_layout(const graph::GraphStore& g, const partition::EdgeCutPartition& p);

}  // namespace cyclops::core
