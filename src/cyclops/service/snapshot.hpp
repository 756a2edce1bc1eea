#pragma once
// Epoch-versioned immutable graph snapshots — the serving-layer realization
// of the paper's distributed immutable view. A Snapshot owns everything a job
// needs to run against one version of the graph: the edge list, the finalized
// graph store, and one pre-built partition per engine family. Snapshots are only ever
// handed out as shared_ptr<const Snapshot>, so in-flight jobs pin their epoch
// for as long as they run while new submissions land on the newest one;
// retirement is the refcount hitting zero (tracked by the store for stats).
//
// Two publication paths exist:
//   - full: copy + re-store + re-partition (the original path; every epoch
//     is self-contained).
//   - overlay (cfg.overlay_publish, the ingest path): a mutation epoch pins
//     its base epoch and layers a graph::DeltaOverlay patch over the base's
//     store — O(touched adjacency) new allocation instead of O(|E|) — and
//     carries the base's edge-cut owner vectors forward (new vertices get
//     the hash rule), which keeps vertex ownership stable across epochs so
//     incremental re-convergence can carry engine state by global id. The
//     edge list and GAS vertex cut are materialized lazily on first use;
//     once the overlay chain exceeds cfg.compact_overlay_fraction of the
//     flat edge count or cfg.max_overlay_depth layers, apply() compacts
//     back to a full snapshot and the chain can retire.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "cyclops/common/sync.hpp"
#include "cyclops/core/mutation.hpp"
#include "cyclops/graph/delta_overlay.hpp"
#include "cyclops/graph/edge_list.hpp"
#include "cyclops/graph/store.hpp"
#include "cyclops/partition/partition.hpp"
#include "cyclops/partition/vertex_cut.hpp"
#include "cyclops/verify/verify.hpp"

namespace cyclops::service {

using Epoch = std::uint64_t;

/// Shape of the simulated cluster every snapshot pre-partitions for.
struct SnapshotConfig {
  MachineId machines = 4;
  WorkerId workers_per_machine = 2;  ///< Hama/Cyclops partitions per machine
  std::string partitioner = "hash";  ///< one of partition::kEdgeCutPartitioners

  /// Graph store backend every epoch materializes (memory | compact | stream)
  /// and the streaming backend's memory cap. Values are bit-identical across
  /// backends; only the residency/cost profile changes.
  graph::StoreKind store = graph::StoreKind::kMemory;
  std::uint64_t mem_cap_mb = 64;
  std::string spill_dir;  ///< stream backend scratch dir; empty = /tmp

  /// Structural-sharing publication for mutation epochs (the ingest path).
  bool overlay_publish = false;
  /// Compact back to a flat store once the overlay chain's patch entries
  /// exceed this fraction of the flat edge count...
  double compact_overlay_fraction = 0.25;
  /// ...or the chain grows this deep (lookup cost is linear in depth).
  std::uint32_t max_overlay_depth = 8;

  [[nodiscard]] WorkerId edge_cut_parts() const noexcept {
    return machines * workers_per_machine;
  }
  [[nodiscard]] graph::StoreOptions store_options() const {
    graph::StoreOptions o;
    o.kind = store;
    o.mem_cap_bytes = mem_cap_mb << 20;
    o.spill_dir = spill_dir;
    return o;
  }
};

class Snapshot;
/// Pinned handle: holding one keeps the epoch's storage alive.
using SnapshotRef = std::shared_ptr<const Snapshot>;

class Snapshot {
 public:
  /// Full (self-contained) epoch: store + partitions built from scratch.
  Snapshot(Epoch epoch, graph::EdgeList edges, const SnapshotConfig& cfg);
  /// Overlay epoch: pins `base` and patches its store with the canonical
  /// delta; partitions are carried forward (see file header).
  Snapshot(Epoch epoch, SnapshotRef base, const core::TopologyDelta::Canonical& delta,
           const SnapshotConfig& cfg);
  ~Snapshot();
  Snapshot(const Snapshot&) = delete;
  Snapshot& operator=(const Snapshot&) = delete;

  // Every accessor that hands out epoch storage reports the read to the
  // verify-layer epoch registry (no-op unless -DCYCLOPS_VERIFY): a caller
  // still holding references past its SnapshotRef is a use-after-retire.
  [[nodiscard]] Epoch epoch() const noexcept { return epoch_; }
  /// The epoch's edge list. Overlay epochs materialize it lazily (first call
  /// pays O(|E|)); the publication fast path never touches it.
  [[nodiscard]] const graph::EdgeList& edges() const;
  [[nodiscard]] const graph::GraphStore& store() const noexcept {
    verify::EpochRegistry::instance().on_read(epoch_, CYCLOPS_VLOC);
    return *store_;
  }
  /// Edge cut with machines * workers_per_machine parts (Hama, plain Cyclops).
  [[nodiscard]] const partition::EdgeCutPartition& edge_cut() const noexcept {
    verify::EpochRegistry::instance().on_read(epoch_, CYCLOPS_VLOC);
    return edge_cut_;
  }
  /// Edge cut with one part per machine (CyclopsMT).
  [[nodiscard]] const partition::EdgeCutPartition& mt_edge_cut() const noexcept {
    verify::EpochRegistry::instance().on_read(epoch_, CYCLOPS_VLOC);
    return mt_edge_cut_;
  }
  /// The edge cut an engine with `parts` workers runs on — edge_cut() or
  /// mt_edge_cut(), keyed by its Config's topo.total_workers(). When
  /// workers_per_machine == 1 the two are the same cut. CYCLOPS_CHECKs that
  /// a cut with `parts` parts exists.
  [[nodiscard]] const partition::EdgeCutPartition& edge_cut_for(WorkerId parts) const;
  /// Vertex cut with one part per machine (PowerGraph/GAS). Overlay epochs
  /// build it lazily on the first GAS submission.
  [[nodiscard]] const partition::VertexCutPartition& vertex_cut() const;
  [[nodiscard]] const SnapshotConfig& config() const noexcept { return cfg_; }
  /// Re-partition + layout time of this epoch (snapshot-transition overhead).
  [[nodiscard]] double build_s() const noexcept { return build_s_; }
  /// Immutability witness: CRC-32 over the raw edge array for full epochs;
  /// overlay epochs chain the base's checksum with the canonical delta bytes
  /// (still unique per epoch, still stable for the epoch's lifetime).
  [[nodiscard]] std::uint32_t edge_checksum() const noexcept { return checksum_; }

  /// Non-null iff this is an overlay epoch (structural sharing in effect).
  [[nodiscard]] const graph::DeltaOverlay* overlay() const noexcept;
  [[nodiscard]] bool is_overlay() const noexcept { return base_ != nullptr; }
  /// The base epoch this overlay pins; nullptr for full epochs.
  [[nodiscard]] const SnapshotRef& base() const noexcept { return base_; }

 private:
  Epoch epoch_ = 0;
  SnapshotConfig cfg_;
  SnapshotRef base_;  ///< overlay epochs keep their base chain alive
  graph::EdgeList edges_;
  std::unique_ptr<const graph::GraphStore> store_;
  partition::EdgeCutPartition edge_cut_;
  partition::EdgeCutPartition mt_edge_cut_;
  partition::VertexCutPartition vertex_cut_;
  double build_s_ = 0;
  std::uint32_t checksum_ = 0;

  // Lazily materialized views for overlay epochs (built at most once; the
  // snapshot stays logically immutable).
  mutable Mutex lazy_mutex_;
  mutable std::unique_ptr<const graph::EdgeList> lazy_edges_;
  mutable std::unique_ptr<const partition::VertexCutPartition> lazy_vertex_cut_;
};

struct SnapshotStoreStats {
  std::uint64_t epochs_published = 0;  ///< includes the base epoch 0
  std::uint64_t epochs_retired = 0;    ///< refcount hit zero
  std::uint64_t overlay_epochs = 0;    ///< published via structural sharing
  std::uint64_t compactions = 0;       ///< overlay chains flattened
  double total_build_s = 0;
  double last_build_s = 0;
};

/// Holds the newest snapshot and publishes new epochs by applying a batched
/// TopologyDelta — either through the const-preserving applied() copy path or
/// (cfg.overlay_publish) as a DeltaOverlay patch over the previous epoch.
/// Thread-safe: jobs pin epochs concurrently with apply().
class SnapshotStore {
 public:
  SnapshotStore(graph::EdgeList base, SnapshotConfig cfg);

  /// Pins and returns the newest snapshot.
  [[nodiscard]] SnapshotRef current() const;
  [[nodiscard]] Epoch current_epoch() const;

  /// Publishes a new epoch from the newest snapshot plus `delta`; returns the
  /// new epoch. The previous snapshot stays alive while any job pins it.
  Epoch apply(const core::TopologyDelta& delta);

  /// Snapshots whose storage is still alive (published - retired).
  [[nodiscard]] std::uint64_t live_snapshots() const;
  [[nodiscard]] SnapshotStoreStats stats() const;

 private:
  SnapshotRef publish(Epoch epoch, graph::EdgeList edges);
  SnapshotRef publish_overlay(Epoch epoch, SnapshotRef base,
                              const core::TopologyDelta::Canonical& delta);
  SnapshotRef wrap(Snapshot* snap);
  [[nodiscard]] bool should_compact(const Snapshot& base,
                                    const core::TopologyDelta::Canonical& delta) const;

  mutable Mutex mutex_;
  SnapshotConfig cfg_;
  SnapshotRef current_;
  SnapshotStoreStats stats_;
  /// Shared with every snapshot's deleter so retirement outlives the store.
  std::shared_ptr<std::atomic<std::uint64_t>> retired_;
};

}  // namespace cyclops::service
