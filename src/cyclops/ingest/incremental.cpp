#include "cyclops/ingest/incremental.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "cyclops/algorithms/catalog.hpp"

namespace cyclops::ingest {

IncrementalConfig make_incremental_config(const service::SnapshotConfig& snap, bool mt,
                                          unsigned threads, unsigned receivers,
                                          Superstep max_supersteps) {
  const algo::ClusterShape shape{.machines = snap.machines,
                                 .workers_per_machine = snap.workers_per_machine,
                                 .mt_threads = threads,
                                 .mt_receivers = receivers,
                                 .max_supersteps = max_supersteps};
  IncrementalConfig cfg;
  cfg.engine = mt ? algo::engine_config<algo::EngineKind::kCyclopsMT>(shape)
                  : algo::engine_config<algo::EngineKind::kCyclops>(shape);
  return cfg;
}

std::vector<VertexId> khop_out(const graph::GraphStore& g, std::span<const VertexId> seeds,
                               unsigned hops) {
  const VertexId n = g.num_vertices();
  std::vector<std::uint8_t> seen(n, 0);
  std::vector<VertexId> out;
  std::vector<VertexId> frontier;
  for (const VertexId v : seeds) {
    if (v < n && !seen[v]) {
      seen[v] = 1;
      out.push_back(v);
      frontier.push_back(v);
    }
  }
  graph::AdjCursor cur;
  for (unsigned h = 0; h < hops && !frontier.empty(); ++h) {
    std::vector<VertexId> next;
    for (const VertexId v : frontier) {
      for (const graph::Adj& a : g.out_neighbors(v, cur)) {
        if (!seen[a.neighbor]) {
          seen[a.neighbor] = 1;
          out.push_back(a.neighbor);
          next.push_back(a.neighbor);
        }
      }
    }
    frontier = std::move(next);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<VertexId> sssp_affected_by_removal(const graph::GraphStore& g,
                                               std::span<const double> dist,
                                               const std::vector<graph::Edge>& removes,
                                               VertexId source) {
  const VertexId n = g.num_vertices();
  std::vector<std::uint8_t> affected(n, 0);
  graph::AdjCursor in_cur;
  // A vertex keeps its distance while some unaffected in-neighbor still
  // provides it (dist[z] + w == dist[y]). The source provides its own 0.
  const auto supported = [&](VertexId y) {
    if (y == source) return true;
    for (const graph::Adj& a : g.in_neighbors(y, in_cur)) {
      if (!affected[a.neighbor] && dist[a.neighbor] + a.weight == dist[y]) return true;
    }
    return false;
  };

  std::vector<VertexId> work;
  for (const graph::Edge& e : removes) {
    if (e.dst < n && std::isfinite(dist[e.dst])) work.push_back(e.dst);
  }
  std::vector<VertexId> out;
  graph::AdjCursor out_cur;
  while (!work.empty()) {
    const VertexId y = work.back();
    work.pop_back();
    if (affected[y] || !std::isfinite(dist[y])) continue;
    if (supported(y)) continue;
    affected[y] = 1;
    out.push_back(y);
    // y's distance fell through; every vertex it tightly supported must be
    // re-checked (it may still have another supporter — supported() decides).
    for (const graph::Adj& a : g.out_neighbors(y, out_cur)) {
      if (!affected[a.neighbor] && std::isfinite(dist[a.neighbor]) &&
          dist[y] + a.weight == dist[a.neighbor]) {
        work.push_back(a.neighbor);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

// ---------------------------------------------------------------------------
// Per-program policies: after rebuild(), reset or wake what the delta touched.

namespace {

/// Touched vertices that exist in the new snapshot (mutation endpoints can
/// reference ids the canonical delta cancelled before they grew the graph).
std::vector<VertexId> touched_in_range(const core::TopologyDelta& delta, VertexId n) {
  std::vector<VertexId> touched = delta.touched_vertices();
  std::erase_if(touched, [n](VertexId v) { return v >= n; });
  return touched;
}

/// What one policy did: vertices re-initialized in place, and vertices
/// re-activated without a reset.
struct PolicyCounts {
  std::size_t reset = 0;
  std::size_t activated = 0;
};

/// delta-PageRank.
PolicyCounts apply_policy(core::Engine<algo::PageRankCyclops>& engine,
                          const algo::PageRankCyclops& /*prog*/, const IncrementalConfig& cfg,
                          const graph::GraphStore& g, VertexId old_n,
                          const core::TopologyDelta& delta) {
  PolicyCounts out;
  const VertexId n = g.num_vertices();
  const auto reset_with_fresh_share = [&](VertexId v) {
    const double value = engine.value_at(v);
    const auto d = g.out_degree(v);
    engine.reset_vertex(v, value, d > 0 ? value / static_cast<double>(d) : 0.0);
  };
  if (n != old_n) {
    // The (1-d)/n teleport term shifted for every vertex: carry the values as
    // a warm start but re-expose every share and re-activate everything.
    for (VertexId v = 0; v < old_n && v < n; ++v) reset_with_fresh_share(v);
    out.reset = std::min<std::size_t>(old_n, n);
  } else {
    // Degree changes invalidate the exposed value/out-degree share even when
    // the value itself is converged — rewrite it in place, then wake the
    // k-hop downstream halo so the rank shift propagates.
    const std::vector<VertexId> touched = touched_in_range(delta, n);
    for (const VertexId v : touched) reset_with_fresh_share(v);
    out.reset = touched.size();
    for (const VertexId v : khop_out(g, touched, cfg.pr_hops)) {
      engine.activate(v);
      ++out.activated;
    }
  }
  return out;
}

/// Incremental SSSP.
PolicyCounts apply_policy(core::Engine<algo::SsspCyclops>& engine,
                          const algo::SsspCyclops& prog, const IncrementalConfig& /*cfg*/,
                          const graph::GraphStore& g, VertexId /*old_n*/,
                          const core::TopologyDelta& delta) {
  PolicyCounts out;
  const VertexId n = g.num_vertices();
  const core::TopologyDelta::Canonical canon = delta.canonical();
  // Adds can only shorten paths: re-relaxing each new edge's head from the
  // carried labels is exactly one more round of the monotone fixpoint.
  for (const graph::Edge& e : canon.adds) {
    if (e.dst < n) {
      engine.activate(e.dst);
      ++out.activated;
    }
  }
  if (!canon.removes.empty()) {
    // Removals can lengthen paths, which the monotone min-relaxation cannot
    // express — re-initialize the orphaned region and let its intact
    // boundary re-relax into it.
    const std::vector<double> dist = engine.values();
    const std::vector<VertexId> orphaned =
        sssp_affected_by_removal(g, dist, canon.removes, prog.source);
    // reset_vertex re-activates each orphan; since Cyclops pulls, an active
    // orphan reads its intact in-neighbors' shared distances directly — the
    // boundary never needs to act, and orphan-to-orphan chains re-fill
    // through the usual improve-and-broadcast cascade.
    for (const VertexId v : orphaned) {
      engine.reset_vertex(v, algo::kInfDistance, algo::kInfDistance);
      ++out.reset;
    }
  }
  return out;
}

/// Incremental CC.
PolicyCounts apply_policy(core::Engine<algo::CcCyclops>& engine, const algo::CcCyclops& /*prog*/,
                          const IncrementalConfig& /*cfg*/, const graph::GraphStore& g,
                          VertexId /*old_n*/, const core::TopologyDelta& delta) {
  PolicyCounts out;
  const VertexId n = g.num_vertices();
  const core::TopologyDelta::Canonical canon = delta.canonical();
  // Labels only flow downward (min), so an add just merges: waking both
  // endpoints lets the smaller label cross the new edge.
  for (const graph::Edge& e : canon.adds) {
    for (const VertexId v : {e.src, e.dst}) {
      if (v < n) {
        engine.activate(v);
        ++out.activated;
      }
    }
  }
  if (!canon.removes.empty()) {
    // A removal may split a component, and min-propagation cannot retract a
    // label — re-initialize every vertex of each affected component and
    // replay the (exact) min-label fixpoint inside it. New vertices beyond
    // the carried label range are freshly initialized by rebuild() already.
    const std::vector<VertexId> labels = engine.values();
    std::vector<VertexId> hit;
    for (const graph::Edge& e : canon.removes) {
      if (e.src < labels.size()) hit.push_back(labels[e.src]);
      if (e.dst < labels.size()) hit.push_back(labels[e.dst]);
    }
    std::sort(hit.begin(), hit.end());
    hit.erase(std::unique(hit.begin(), hit.end()), hit.end());
    for (VertexId v = 0; v < labels.size() && v < n; ++v) {
      if (std::binary_search(hit.begin(), hit.end(), labels[v])) {
        engine.reset_vertex(v, v, v);
        ++out.reset;
      }
    }
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// The shell

template <typename Program>
Incremental<Program>::Incremental(service::SnapshotRef snap, Program prog,
                                  IncrementalConfig cfg)
    : cfg_(cfg),
      prog_(prog),
      snap_(std::move(snap)),
      engine_(snap_->store(), snap_->edge_cut_for(cfg_.engine.topo.total_workers()), prog_,
              cfg_.engine) {}

template <typename Program>
EpochAdvance Incremental<Program>::advance(service::SnapshotRef next,
                                           const core::TopologyDelta& delta) {
  EpochAdvance out;
  out.epoch = next->epoch();
  const VertexId old_n = snap_->store().num_vertices();
  const graph::GraphStore& g = next->store();
  out.rebuild_s = engine_.rebuild(g, next->edge_cut_for(cfg_.engine.topo.total_workers()));
  const PolicyCounts counts = apply_policy(engine_, prog_, cfg_, g, old_n, delta);
  out.reset_vertices = counts.reset;
  out.activated_vertices = counts.activated;
  engine_.extend_max_supersteps(cfg_.engine.max_supersteps);
  out.run = engine_.run();
  snap_ = std::move(next);
  return out;
}

template class Incremental<algo::PageRankCyclops>;
template class Incremental<algo::SsspCyclops>;
template class Incremental<algo::CcCyclops>;

}  // namespace cyclops::ingest
