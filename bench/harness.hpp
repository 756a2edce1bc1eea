#pragma once
// Shared benchmark harness: runs one (dataset, engine, configuration) cell
// and returns the numbers the paper's figures/tables report. Every bench
// binary builds its rows through this file so "execution time", "#messages"
// and "replication factor" mean the same thing everywhere.
//
// Engine time = modeled phase work + modeled wire/barrier time (see
// DESIGN.md §5). The job catalog (algorithms/catalog.hpp) wires each
// (workload, engine) cell: Hama = bsp::Engine with the Java-RPC cost model,
// Cyclops/CyclopsMT = core::Engine, PowerGraph = gas::Engine.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "cyclops/algorithms/catalog.hpp"
#include "cyclops/common/args.hpp"
#include "cyclops/algorithms/datasets.hpp"
#include "cyclops/graph/store.hpp"
#include "cyclops/metrics/superstep_stats.hpp"
#include "cyclops/partition/hash.hpp"
#include "cyclops/partition/multilevel.hpp"
#include "cyclops/partition/vertex_cut.hpp"

namespace cyclops::bench {

struct RunOptions {
  MachineId machines = 6;          ///< the paper's cluster size
  WorkerId workers = 48;           ///< total workers (partitions for Hama/Cyclops)
  unsigned mt_receivers = 2;       ///< CyclopsMT receiver threads
  bool multilevel = false;         ///< Metis-like partition instead of hash
  double epsilon = 1e-9;
  Superstep max_supersteps = 30;
  std::uint64_t partition_seed = 42;
  args::StoreArgs store;           ///< graph store backend selection

  [[nodiscard]] graph::StoreOptions store_options() const {
    return graph::make_store_options(store.kind, store.mem_cap_mb, store.spill_dir);
  }
};

/// Shared flag block for bench mains: overrides the harness defaults from the
/// command line. Callers query their own binary-specific flags on `p` before
/// or after, then call p.finish().
inline RunOptions parse_run_options(args::Parser& p, RunOptions o = {}) {
  o.machines = p.get("--machines", o.machines);
  o.workers = p.get("--workers", o.workers);
  o.mt_receivers = p.get("--receivers", o.mt_receivers);
  if (p.flag("--multilevel")) o.multilevel = true;
  o.epsilon = p.get("--epsilon", o.epsilon);
  o.max_supersteps = p.get("--max-supersteps", o.max_supersteps);
  o.partition_seed = p.get("--seed", o.partition_seed);
  o.store = args::store_args(p);
  return o;
}

struct CellResult {
  metrics::RunStats stats;
  std::uint64_t messages = 0;
  std::uint64_t remote_messages = 0;
  double replication_factor = 1.0;
  double total_s = 0;  ///< headline execution time

  [[nodiscard]] double speedup_over(const CellResult& base) const {
    return total_s > 0 ? base.total_s / total_s : 0.0;
  }
};

inline partition::EdgeCutPartition make_edge_cut(const graph::GraphStore& g,
                                                 const RunOptions& opts,
                                                 WorkerId parts) {
  if (opts.multilevel) {
    partition::MultilevelConfig cfg;
    cfg.seed = opts.partition_seed;
    return partition::MultilevelPartitioner{cfg}.partition(g, parts);
  }
  return partition::HashPartitioner{}.partition(g, parts);
}

/// Runs the dataset's designated workload (Table 1 mapping) on one engine.
/// An unsupported pair (PowerGraph only has PageRank and SSSP) stops the
/// bench with the catalog's reason.
inline CellResult run_cell(const algo::Dataset& d, const graph::GraphStore& g,
                           algo::EngineKind kind, const RunOptions& opts) {
  constexpr unsigned kAlsRounds = 10;
  const algo::JobParams params{.epsilon = opts.epsilon,
                               .source = 0,
                               .num_users = d.num_users,
                               .rounds = kAlsRounds};
  Superstep cap = opts.max_supersteps;
  // Push-mode SSSP needs diameter-many supersteps; ALS stops after its
  // rounds (BSP spends one more superstep on the item bootstrap broadcast).
  if (d.workload == algo::Algo::kSssp) cap = 2000;
  if (d.workload == algo::Algo::kAls) {
    cap = kAlsRounds + (kind == algo::EngineKind::kHama ? 2 : 1);
  }
  // CyclopsMT: one worker per machine, workers/machines simulated compute
  // threads.
  const WorkerId per_machine = opts.workers / opts.machines;
  const algo::ClusterShape shape{.machines = opts.machines,
                                 .workers_per_machine = per_machine,
                                 .mt_threads = std::max<unsigned>(1, per_machine),
                                 .mt_receivers = opts.mt_receivers,
                                 .max_supersteps = cap};
  if (const std::string why = algo::unsupported(d.workload, kind, g, params); !why.empty()) {
    std::fprintf(stderr, "%s on %s: %s\n", d.name.c_str(), algo::label(kind), why.c_str());
    std::exit(2);  // NOLINT(concurrency-mt-unsafe) — a bench misconfiguration
  }
  return algo::with_job(
      g, d.workload, kind, params, shape,
      [&]<typename Engine>(std::type_identity<Engine>, const auto& prog, const auto& cfg) {
        const WorkerId parts = cfg.topo.total_workers();
        const auto part = [&] {
          if constexpr (algo::kVertexCut<Engine>) {
            return opts.multilevel
                       ? partition::GreedyVertexCut{opts.partition_seed}.partition(g, parts)
                       : partition::RandomVertexCut{}.partition(g, parts);
          } else {
            return make_edge_cut(g, opts, parts);
          }
        }();
        Engine engine(g, part, prog, cfg);
        CellResult r;
        r.stats = engine.run();
        if constexpr (requires { engine.layout(); }) {
          r.replication_factor = engine.layout().replication_factor(g.num_vertices());
        }
        const auto net = r.stats.net_totals();
        r.messages = net.total_messages();
        r.remote_messages = net.remote_messages;
        r.total_s = r.stats.total_time_s();
        return r;
      });
}

}  // namespace cyclops::bench
