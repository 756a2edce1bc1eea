#include "cyclops/core/layout.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "cyclops/common/check.hpp"
#include "cyclops/common/timer.hpp"

namespace cyclops::core {

Layout build_layout(const graph::GraphStore& g, const partition::EdgeCutPartition& p) {
  graph::AdjCursor cur;
  CYCLOPS_CHECK(g.num_vertices() == p.num_vertices());
  const VertexId n = g.num_vertices();
  const WorkerId workers = p.num_parts();

  Layout layout;
  layout.workers.resize(workers);
  layout.master_index.assign(n, 0);

  // --- Masters. ---
  for (VertexId v = 0; v < n; ++v) {
    WorkerLayout& wl = layout.workers[p.owner(v)];
    layout.master_index[v] = static_cast<std::uint32_t>(wl.masters.size());
    wl.masters.push_back(v);
  }

  // --- REP phase: replica discovery (this is the extra ingress superstep
  // §4.3 describes: each vertex "sends" along its out-edges; a remote worker
  // creates the replica on first receipt). Walking v in increasing order
  // with one "last v" marker per worker leaves each list sorted and free of
  // duplicates. ---
  Timer rep_timer;
  std::vector<std::vector<VertexId>> replica_sets(workers);
  {
    std::vector<VertexId> last(workers, kInvalidVertex);
    for (VertexId v = 0; v < n; ++v) {
      const WorkerId home = p.owner(v);
      for (const graph::Adj& a : g.out_neighbors(v, cur)) {
        const WorkerId w = p.owner(a.neighbor);
        if (w != home && last[w] != v) {
          last[w] = v;
          replica_sets[w].push_back(v);
        }
      }
    }
  }
  // Replica slots follow the masters, ordered by (owner, id) — the §4.1
  // locality grouping: one stable counting bucket by owner.
  std::vector<std::size_t> bucket(static_cast<std::size_t>(workers) + 1);
  for (WorkerId w = 0; w < workers; ++w) {
    WorkerLayout& wl = layout.workers[w];
    std::vector<VertexId> reps = std::move(replica_sets[w]);
    std::fill(bucket.begin(), bucket.end(), 0);
    for (const VertexId v : reps) ++bucket[p.owner(v) + 1];
    std::partial_sum(bucket.begin(), bucket.end(), bucket.begin());
    wl.replica_globals.resize(reps.size());
    wl.replica_owner.resize(reps.size());
    for (const VertexId v : reps) {
      const std::size_t i = bucket[p.owner(v)]++;
      wl.replica_globals[i] = v;
      wl.replica_owner[i] = p.owner(v);
    }
    layout.total_replicas += reps.size();
  }
  layout.replicate_s = rep_timer.elapsed_s();

  // --- INIT phase: in-edges, local out-edges, replica sync targets. ---
  Timer init_timer;
  constexpr Slot kNoSlot = std::numeric_limits<Slot>::max();
  std::vector<Slot> slot_of(n, kNoSlot);  // global id -> slot on the worker being built
  for (WorkerId w = 0; w < workers; ++w) {
    WorkerLayout& wl = layout.workers[w];
    for (Slot s = 0; s < wl.num_slots(); ++s) slot_of[wl.slot_global(s)] = s;

    // In-edges of each master, resolved to local slots. Every in-neighbor is
    // either a local master or has a replica here (it has an out-edge to a
    // vertex we own — this master).
    wl.in_offsets.assign(wl.masters.size() + 1, 0);
    for (std::uint32_t i = 0; i < wl.num_masters(); ++i) {
      wl.in_offsets[i + 1] = wl.in_offsets[i] + g.in_degree(wl.masters[i]);
    }
    wl.in_adj.resize(wl.in_offsets.back());
    for (std::uint32_t i = 0; i < wl.num_masters(); ++i) {
      std::size_t cursor = wl.in_offsets[i];
      for (const graph::Adj& a : g.in_neighbors(wl.masters[i], cur)) {
        const Slot s = slot_of[a.neighbor];
        CYCLOPS_CHECK(s != kNoSlot);
        wl.in_adj[cursor++] = SlotAdj{s, a.weight};
      }
    }
    for (Slot s = 0; s < wl.num_slots(); ++s) slot_of[wl.slot_global(s)] = kNoSlot;

    // Local out-edges per slot (two-pass CSR fill).
    wl.lout_offsets.assign(wl.num_slots() + 1, 0);
    auto count_lout = [&](Slot slot, VertexId global) {
      for (const graph::Adj& a : g.out_neighbors(global, cur)) {
        if (p.owner(a.neighbor) == w) ++wl.lout_offsets[slot + 1];
      }
    };
    for (Slot s = 0; s < wl.num_slots(); ++s) count_lout(s, wl.slot_global(s));
    for (std::size_t i = 1; i < wl.lout_offsets.size(); ++i) {
      wl.lout_offsets[i] += wl.lout_offsets[i - 1];
    }
    wl.lout_adj.resize(wl.lout_offsets.back());
    std::vector<std::size_t> cursor(wl.lout_offsets.begin(), wl.lout_offsets.end() - 1);
    auto fill_lout = [&](Slot slot, VertexId global) {
      for (const graph::Adj& a : g.out_neighbors(global, cur)) {
        if (p.owner(a.neighbor) == w) {
          wl.lout_adj[cursor[slot]++] = layout.master_index[a.neighbor];
        }
      }
    };
    for (Slot s = 0; s < wl.num_slots(); ++s) fill_lout(s, wl.slot_global(s));
  }

  // Replica sync targets: invert the replica lists onto each master.
  for (WorkerId w = 0; w < workers; ++w) {
    WorkerLayout& wl = layout.workers[w];
    wl.rep_offsets.assign(wl.masters.size() + 1, 0);
  }
  for (WorkerId w = 0; w < workers; ++w) {
    const WorkerLayout& wl = layout.workers[w];
    for (Slot i = 0; i < wl.num_replicas(); ++i) {
      const VertexId v = wl.replica_globals[i];
      WorkerLayout& home = layout.workers[wl.replica_owner[i]];
      ++home.rep_offsets[layout.master_index[v] + 1];
    }
  }
  for (WorkerId w = 0; w < workers; ++w) {
    WorkerLayout& wl = layout.workers[w];
    for (std::size_t i = 1; i < wl.rep_offsets.size(); ++i) {
      wl.rep_offsets[i] += wl.rep_offsets[i - 1];
    }
    wl.rep_targets.resize(wl.rep_offsets.back());
  }
  std::vector<std::vector<std::size_t>> rep_cursor(workers);
  for (WorkerId w = 0; w < workers; ++w) {
    const WorkerLayout& wl = layout.workers[w];
    rep_cursor[w].assign(wl.rep_offsets.begin(), wl.rep_offsets.end() - 1);
  }
  for (WorkerId w = 0; w < workers; ++w) {
    const WorkerLayout& wl = layout.workers[w];
    for (Slot i = 0; i < wl.num_replicas(); ++i) {
      const VertexId v = wl.replica_globals[i];
      const WorkerId home_w = wl.replica_owner[i];
      WorkerLayout& home = layout.workers[home_w];
      const std::uint32_t mi = layout.master_index[v];
      home.rep_targets[rep_cursor[home_w][mi]++] =
          ReplicaRef{w, static_cast<Slot>(wl.num_masters() + i)};
    }
  }
  layout.init_s = init_timer.elapsed_s();
  return layout;
}

}  // namespace cyclops::core
