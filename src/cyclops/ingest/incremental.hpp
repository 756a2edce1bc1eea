#pragma once
// Incremental re-convergence — algorithms resume from the prior epoch's
// converged values with only the affected region re-activated, instead of
// re-running from scratch on every published epoch. Built on the Cyclops
// engine's mutation hooks (rebuild / activate / reset_vertex): the engine
// carries master state across epochs by global id, and the per-algorithm
// policies below decide what must be reset or re-activated:
//
//   - delta-PageRank: every touched vertex is reset in place (carried value,
//     shared contribution recomputed against its *new* out-degree — degree
//     changes silently invalidate the exposed value/degree share even when
//     the value is converged), and the k-hop out-neighborhood of the
//     mutation sites is re-activated so the rank shift propagates. A vertex-
//     count change shifts the (1-d)/n term of every vertex, so it falls back
//     to re-activating all of them (values still carried).
//   - SSSP: an added edge re-activates its head, which re-relaxes from the
//     carried frontier. Removals break the monotone-label discipline, so the
//     orphaned region — vertices whose distance loses all remaining support
//     (Ramalingam/Reps-style tight-edge walk) — is re-initialized to inf and
//     re-relaxed from its intact boundary.
//   - CC: adds re-activate both endpoints (labels only merge downward).
//     A removal may split a component, so every vertex carrying an affected
//     component label is re-initialized and the min-label propagation
//     replays inside that component only.
//
// Equivalence contract (enforced by tests/test_ingest.cpp): after advance()
// the engine's values are bit-identical (SSSP/CC) or within 1e-12
// (PageRank, at matching epsilon) to a cold run on the mutated snapshot.
// Incremental execution is a capability of the Cyclops engines (cyclops and
// cyclops-mt share core::Engine); BSP/GAS jobs always run cold.

#include <cstddef>
#include <span>
#include <vector>

#include "cyclops/algorithms/cc.hpp"
#include "cyclops/algorithms/pagerank.hpp"
#include "cyclops/algorithms/sssp.hpp"
#include "cyclops/core/engine.hpp"
#include "cyclops/core/mutation.hpp"
#include "cyclops/metrics/superstep_stats.hpp"
#include "cyclops/service/snapshot.hpp"

namespace cyclops::ingest {

struct IncrementalConfig {
  /// Engine config; topology must match the partition family `mt` selects
  /// (Config::cyclops ↔ edge_cut, Config::cyclops_mt ↔ mt_edge_cut).
  core::Config engine;
  bool mt = false;
  unsigned pr_hops = 2;               ///< delta-PR re-activation radius
  Superstep extend_per_epoch = 5000;  ///< superstep budget added per advance()
};

/// The job catalog's Cyclops/CyclopsMT config for the snapshot's cluster
/// shape, so incremental runs are comparable to scheduler jobs on it.
[[nodiscard]] IncrementalConfig make_incremental_config(const service::SnapshotConfig& snap,
                                                        bool mt, unsigned threads = 4,
                                                        unsigned receivers = 2,
                                                        Superstep max_supersteps = 5000);

/// What one epoch transition cost.
struct EpochAdvance {
  service::Epoch epoch = 0;
  double rebuild_s = 0;                ///< engine relayout time
  std::size_t reset_vertices = 0;      ///< state re-initialized in place
  std::size_t activated_vertices = 0;  ///< re-activated without reset
  metrics::RunStats run;               ///< the incremental re-convergence run
};

/// Vertices within `hops` out-edge steps of `seeds` (seeds included),
/// deduplicated and sorted — delta-PR's re-activation halo.
[[nodiscard]] std::vector<VertexId> khop_out(const graph::GraphStore& g,
                                             std::span<const VertexId> seeds, unsigned hops);

/// The orphaned region of an SSSP solution after edge removals: vertices
/// whose current distance has no remaining tight in-edge from an unaffected
/// vertex. Walks tight out-edges to a fixpoint; conservative in the presence
/// of floating-point ties (a false positive costs re-relaxation, never
/// correctness). `dist` is indexed by vertex id over `g`'s vertices.
[[nodiscard]] std::vector<VertexId> sssp_affected_by_removal(
    const graph::GraphStore& g, std::span<const double> dist,
    const std::vector<graph::Edge>& removes, VertexId source);

class IncrementalPageRank {
 public:
  IncrementalPageRank(service::SnapshotRef snap, algo::PageRankCyclops prog,
                      IncrementalConfig cfg);
  /// The initial from-scratch convergence on the pinned snapshot.
  metrics::RunStats cold_run() { return engine_.run(); }
  /// Re-targets the engine at `next` and re-converges incrementally.
  EpochAdvance advance(service::SnapshotRef next, const core::TopologyDelta& delta);
  [[nodiscard]] std::vector<double> values() const { return engine_.values(); }
  [[nodiscard]] core::Engine<algo::PageRankCyclops>& engine() noexcept { return engine_; }
  [[nodiscard]] const service::SnapshotRef& snapshot() const noexcept { return snap_; }

 private:
  IncrementalConfig cfg_;
  algo::PageRankCyclops prog_;
  service::SnapshotRef snap_;
  core::Engine<algo::PageRankCyclops> engine_;
};

class IncrementalSssp {
 public:
  IncrementalSssp(service::SnapshotRef snap, algo::SsspCyclops prog, IncrementalConfig cfg);
  metrics::RunStats cold_run() { return engine_.run(); }
  EpochAdvance advance(service::SnapshotRef next, const core::TopologyDelta& delta);
  [[nodiscard]] std::vector<double> values() const { return engine_.values(); }
  [[nodiscard]] core::Engine<algo::SsspCyclops>& engine() noexcept { return engine_; }
  [[nodiscard]] const service::SnapshotRef& snapshot() const noexcept { return snap_; }

 private:
  IncrementalConfig cfg_;
  algo::SsspCyclops prog_;
  service::SnapshotRef snap_;
  core::Engine<algo::SsspCyclops> engine_;
};

class IncrementalCc {
 public:
  IncrementalCc(service::SnapshotRef snap, algo::CcCyclops prog, IncrementalConfig cfg);
  metrics::RunStats cold_run() { return engine_.run(); }
  EpochAdvance advance(service::SnapshotRef next, const core::TopologyDelta& delta);
  [[nodiscard]] std::vector<VertexId> values() const { return engine_.values(); }
  [[nodiscard]] core::Engine<algo::CcCyclops>& engine() noexcept { return engine_; }
  [[nodiscard]] const service::SnapshotRef& snapshot() const noexcept { return snap_; }

 private:
  IncrementalConfig cfg_;
  algo::CcCyclops prog_;
  service::SnapshotRef snap_;
  core::Engine<algo::CcCyclops> engine_;
};

}  // namespace cyclops::ingest
