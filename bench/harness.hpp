#pragma once
// Shared benchmark harness: runs one (dataset, engine, configuration) cell
// and returns the numbers the paper's figures/tables report. Every
// bench_paper panel, the REC recovery panel included, builds its rows
// through this file so "execution time", "#messages" and "replication
// factor" mean the same thing everywhere.
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
#include "cyclops/algorithms/datasets.hpp"
#include "cyclops/graph/store.hpp"
#include "cyclops/metrics/memory_model.hpp"
#include "cyclops/metrics/superstep_stats.hpp"
#include "cyclops/partition/hash.hpp"
#include "cyclops/partition/multilevel.hpp"
#include "cyclops/partition/vertex_cut.hpp"

namespace cyclops::bench {

// The paper's fixed evaluation settings (§6.1).
inline constexpr MachineId kMachines = 6;         ///< cluster size
inline constexpr unsigned kMtReceivers = 2;       ///< CyclopsMT receiver threads
inline constexpr std::uint64_t kPartitionSeed = 42;
inline constexpr double kEpsilon = 1e-9;          ///< PageRank convergence threshold
inline constexpr Superstep kMaxSupersteps = 30;

/// What varies between a figure's cells.
struct RunOptions {
  WorkerId workers = 48;    ///< total workers (partitions for Hama/Cyclops)
  bool multilevel = false;  ///< Metis-like partition instead of hash
};

struct CellResult {
  metrics::RunStats stats;
  metrics::MemoryReport memory;
  std::uint64_t messages = 0;
  std::uint64_t remote_messages = 0;
  double replication_factor = 1.0;
  double total_s = 0;  ///< headline execution time

  [[nodiscard]] double speedup_over(const CellResult& base) const {
    return total_s > 0 ? base.total_s / total_s : 0.0;
  }
};

/// The partition `Engine` runs on with `parts` parts: PowerGraph takes a
/// vertex cut (greedy when opts.multilevel, else random), the rest an edge
/// cut (Metis-like when opts.multilevel, else hash).
template <typename Engine>
auto make_partition(const graph::GraphStore& g, const RunOptions& opts, WorkerId parts) {
  if constexpr (algo::kVertexCut<Engine>) {
    return opts.multilevel ? partition::GreedyVertexCut{kPartitionSeed}.partition(g, parts)
                           : partition::RandomVertexCut{}.partition(g, parts);
  } else if (opts.multilevel) {
    partition::MultilevelConfig cfg;
    cfg.seed = kPartitionSeed;
    return partition::MultilevelPartitioner{cfg}.partition(g, parts);
  } else {
    return partition::HashPartitioner{}.partition(g, parts);
  }
}

/// Runs the dataset's designated workload (Table 1 mapping) on one engine.
/// An unsupported pair (PowerGraph only has PageRank and SSSP) stops the
/// bench with the catalog's reason.
inline CellResult run_cell(const algo::Dataset& d, const graph::GraphStore& g,
                           algo::EngineKind kind, const RunOptions& opts) {
  constexpr unsigned kAlsRounds = 10;
  const algo::JobParams params{.epsilon = kEpsilon,
                               .source = 0,
                               .num_users = d.num_users,
                               .rounds = kAlsRounds};
  Superstep cap = kMaxSupersteps;
  // Push-mode SSSP needs diameter-many supersteps; ALS stops after its
  // rounds (BSP spends one more superstep on the item bootstrap broadcast).
  if (d.workload == algo::Algo::kSssp) cap = 2000;
  if (d.workload == algo::Algo::kAls) {
    cap = kAlsRounds + (kind == algo::EngineKind::kHama ? 2 : 1);
  }
  // CyclopsMT: one worker per machine, workers/machines simulated compute
  // threads.
  const WorkerId per_machine = opts.workers / kMachines;
  const algo::ClusterShape shape{.machines = kMachines,
                                 .workers_per_machine = per_machine,
                                 .mt_threads = std::max<unsigned>(1, per_machine),
                                 .mt_receivers = kMtReceivers,
                                 .max_supersteps = cap};
  if (const std::string why = algo::unsupported(d.workload, kind, g, params); !why.empty()) {
    std::fprintf(stderr, "%s on %s: %s\n", d.name.c_str(), algo::label(kind), why.c_str());
    std::exit(2);  // NOLINT(concurrency-mt-unsafe) — a bench misconfiguration
  }
  return algo::with_job(
      g, d.workload, kind, params, shape,
      [&]<typename Engine>(std::type_identity<Engine>, const auto& prog, const auto& cfg) {
        Engine engine(g, make_partition<Engine>(g, opts, cfg.topo.total_workers()), prog, cfg);
        CellResult r;
        r.stats = engine.run();
        r.memory = engine.memory_report();
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
