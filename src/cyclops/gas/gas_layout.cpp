#include "cyclops/gas/gas_layout.hpp"

#include <limits>
#include <numeric>

#include "cyclops/common/check.hpp"
#include "cyclops/common/timer.hpp"

namespace cyclops::gas {

GasLayout build_gas_layout(const graph::GraphStore& g,
                           const partition::VertexCutPartition& p) {
  Timer timer;
  const VertexId n = g.num_vertices();
  const WorkerId workers = p.num_parts();
  GasLayout layout;
  layout.workers.resize(workers);
  layout.master_ref.assign(n, MirrorRef{});

  // Place each edge on its worker; endpoints stay global ids until the
  // worker's copies are numbered.
  {
    std::vector<std::size_t> placed(workers, 0);
    for (const WorkerId w : p.edge_owners()) ++placed[w];
    for (WorkerId w = 0; w < workers; ++w) layout.workers[w].edges.reserve(placed[w]);
    std::size_t e = 0;
    g.for_each_edge([&](VertexId src, VertexId dst, double weight) {
      layout.workers[p.edge_owner(e++)].edges.push_back(LocalEdge{src, dst, weight});
    });
  }

  // Copy discovery: a worker holds a copy of v if it hosts an edge incident
  // to v, or if it is v's designated master. A presence pass over increasing
  // v numbers the copies in id order; copy_of then rewrites the endpoints
  // and is cleared for the next worker.
  constexpr Copy kNoCopy = std::numeric_limits<Copy>::max();
  constexpr Copy kPresent = kNoCopy - 1;
  std::vector<Copy> copy_of(n, kNoCopy);
  for (WorkerId w = 0; w < workers; ++w) {
    GasWorkerLayout& wl = layout.workers[w];
    for (const LocalEdge& e : wl.edges) copy_of[e.src] = copy_of[e.dst] = kPresent;
    for (VertexId v = 0; v < n; ++v) {
      if (copy_of[v] == kPresent || p.master(v) == w) {
        copy_of[v] = wl.num_copies();
        wl.copy_globals.push_back(v);
      }
    }
    wl.copy_globals.shrink_to_fit();
    for (LocalEdge& e : wl.edges) {
      e.src = copy_of[e.src];
      e.dst = copy_of[e.dst];
    }
    wl.is_master.assign(wl.num_copies(), 0);
    wl.master_of.assign(wl.num_copies(), MirrorRef{});
    for (Copy c = 0; c < wl.num_copies(); ++c) {
      const VertexId v = wl.copy_globals[c];
      copy_of[v] = kNoCopy;
      if (p.master(v) == w) {
        wl.is_master[c] = 1;
        layout.master_ref[v] = MirrorRef{w, c};
      }
    }
    layout.total_copies += wl.num_copies();
  }

  // master_of per copy, and mirror lists per master (two-pass CSR fill in
  // (worker, copy) order).
  for (WorkerId w = 0; w < workers; ++w) {
    GasWorkerLayout& wl = layout.workers[w];
    wl.mirror_offsets.assign(wl.num_copies() + 1, 0);
  }
  for (WorkerId w = 0; w < workers; ++w) {
    GasWorkerLayout& wl = layout.workers[w];
    for (Copy c = 0; c < wl.num_copies(); ++c) {
      const MirrorRef master = layout.master_ref[wl.copy_globals[c]];
      wl.master_of[c] = master;
      if (!wl.is_master[c]) ++layout.workers[master.worker].mirror_offsets[master.copy + 1];
    }
  }
  std::vector<std::vector<std::size_t>> mirror_cursor(workers);
  for (WorkerId w = 0; w < workers; ++w) {
    GasWorkerLayout& wl = layout.workers[w];
    std::partial_sum(wl.mirror_offsets.begin(), wl.mirror_offsets.end(),
                     wl.mirror_offsets.begin());
    wl.mirrors.resize(wl.mirror_offsets.back());
    mirror_cursor[w].assign(wl.mirror_offsets.begin(), wl.mirror_offsets.end() - 1);
  }
  for (WorkerId w = 0; w < workers; ++w) {
    const GasWorkerLayout& wl = layout.workers[w];
    for (Copy c = 0; c < wl.num_copies(); ++c) {
      if (wl.is_master[c]) continue;
      const MirrorRef master = wl.master_of[c];
      layout.workers[master.worker].mirrors[mirror_cursor[master.worker][master.copy]++] =
          MirrorRef{w, c};
    }
  }

  // Per-copy in/out CSR over the local edges.
  for (WorkerId w = 0; w < workers; ++w) {
    GasWorkerLayout& wl = layout.workers[w];
    wl.in_offsets.assign(wl.num_copies() + 1, 0);
    wl.out_offsets.assign(wl.num_copies() + 1, 0);
    for (const LocalEdge& e : wl.edges) {
      ++wl.out_offsets[e.src + 1];
      ++wl.in_offsets[e.dst + 1];
    }
    for (Copy c = 0; c < wl.num_copies(); ++c) {
      wl.out_offsets[c + 1] += wl.out_offsets[c];
      wl.in_offsets[c + 1] += wl.in_offsets[c];
    }
    wl.out_edge_ids.resize(wl.edges.size());
    wl.in_edge_ids.resize(wl.edges.size());
    std::vector<std::size_t> out_cursor(wl.out_offsets.begin(), wl.out_offsets.end() - 1);
    std::vector<std::size_t> in_cursor(wl.in_offsets.begin(), wl.in_offsets.end() - 1);
    for (std::uint32_t e = 0; e < wl.edges.size(); ++e) {
      wl.out_edge_ids[out_cursor[wl.edges[e].src]++] = e;
      wl.in_edge_ids[in_cursor[wl.edges[e].dst]++] = e;
    }
  }
  layout.build_s = timer.elapsed_s();
  return layout;
}

}  // namespace cyclops::gas
