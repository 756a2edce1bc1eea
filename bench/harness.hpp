#pragma once
// Shared benchmark harness: runs one (dataset, engine, configuration) cell
// and returns the numbers the paper's figures/tables report. Every bench
// binary builds its rows through this file so "execution time", "#messages"
// and "replication factor" mean the same thing everywhere.
//
// Engine time = measured simulated-parallel work + modeled wire/barrier time
// (see DESIGN.md §5). Hama = bsp::Engine with the Java-RPC cost model;
// Cyclops/CyclopsMT = core::Engine; PowerGraph = gas::Engine.

#include <optional>
#include <string>

#include "cyclops/algorithms/als.hpp"
#include "cyclops/common/args.hpp"
#include "cyclops/algorithms/cd.hpp"
#include "cyclops/algorithms/datasets.hpp"
#include "cyclops/algorithms/pagerank.hpp"
#include "cyclops/algorithms/sssp.hpp"
#include "cyclops/bsp/engine.hpp"
#include "cyclops/core/engine.hpp"
#include "cyclops/gas/engine.hpp"
#include "cyclops/graph/store.hpp"
#include "cyclops/metrics/superstep_stats.hpp"
#include "cyclops/partition/hash.hpp"
#include "cyclops/partition/multilevel.hpp"
#include "cyclops/partition/vertex_cut.hpp"

namespace cyclops::bench {

enum class EngineKind { kHama, kCyclops, kCyclopsMT, kPowerGraph };

inline const char* engine_name(EngineKind k) {
  switch (k) {
    case EngineKind::kHama: return "Hama";
    case EngineKind::kCyclops: return "Cyclops";
    case EngineKind::kCyclopsMT: return "CyclopsMT";
    case EngineKind::kPowerGraph: return "PowerGraph";
  }
  return "?";
}

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

namespace detail {

template <typename Engine>
CellResult collect(Engine& engine, metrics::RunStats stats, double replication) {
  CellResult r;
  r.stats = std::move(stats);
  const auto net = r.stats.net_totals();
  r.messages = net.total_messages();
  r.remote_messages = net.remote_messages;
  r.replication_factor = replication;
  r.total_s = r.stats.total_time_s();
  (void)engine;
  return r;
}

template <typename Prog>
CellResult run_bsp(const graph::GraphStore& g, const algo::Dataset& d, Prog prog,
                   const RunOptions& opts) {
  (void)d;
  bsp::Config cfg;
  cfg.topo = sim::Topology{opts.machines, opts.workers / opts.machines};
  cfg.max_supersteps = opts.max_supersteps;
  bsp::Engine<Prog> engine(g, make_edge_cut(g, opts, opts.workers), prog, cfg);
  auto stats = engine.run();
  return collect(engine, std::move(stats), 1.0);
}

template <typename Prog>
CellResult run_cyclops(const graph::GraphStore& g, const algo::Dataset& d, Prog prog,
                       const RunOptions& opts, bool mt) {
  (void)d;
  core::Config cfg;
  if (mt) {
    // One worker per machine, workers/machines simulated compute threads.
    cfg = core::Config::cyclops_mt(opts.machines,
                                   std::max<unsigned>(1, opts.workers / opts.machines),
                                   opts.mt_receivers);
  } else {
    cfg = core::Config::cyclops(opts.machines, opts.workers / opts.machines);
  }
  cfg.max_supersteps = opts.max_supersteps;
  const WorkerId parts = cfg.topo.total_workers();
  core::Engine<Prog> engine(g, make_edge_cut(g, opts, parts), prog, cfg);
  auto stats = engine.run();
  return collect(engine, std::move(stats),
                 engine.layout().replication_factor(g.num_vertices()));
}

}  // namespace detail

/// Runs the dataset's designated workload (Table 1 mapping) on one engine.
/// PowerGraph only supports PageRank here (that is all the paper compares).
inline CellResult run_cell(const algo::Dataset& d, const graph::GraphStore& g, EngineKind kind,
                           const RunOptions& opts) {
  switch (d.workload) {
    case algo::Workload::kPageRank: {
      if (kind == EngineKind::kHama) {
        algo::PageRankBsp prog;
        prog.epsilon = opts.epsilon;
        return detail::run_bsp(g, d, prog, opts);
      }
      if (kind == EngineKind::kPowerGraph) {
        algo::PageRankGas prog;
        prog.num_vertices = g.num_vertices();
        prog.epsilon = opts.epsilon;
        gas::Config cfg;
        // PowerGraph is "essentially multithreaded" (§6.12): one partition
        // per machine, like CyclopsMT — this is what makes the Table 4
        // replication factors comparable.
        cfg.topo = sim::Topology{opts.machines, 1};
        cfg.max_iterations = opts.max_supersteps;
        const WorkerId parts = cfg.topo.total_workers();
        const auto vcut = opts.multilevel
                              ? partition::GreedyVertexCut{opts.partition_seed}.partition(
                                    g, parts)
                              : partition::RandomVertexCut{}.partition(g, parts);
        gas::Engine<algo::PageRankGas> engine(g, vcut, prog, cfg);
        auto stats = engine.run();
        return detail::collect(engine, std::move(stats),
                               engine.layout().replication_factor(g.num_vertices()));
      }
      algo::PageRankCyclops prog;
      prog.epsilon = opts.epsilon;
      return detail::run_cyclops(g, d, prog, opts, kind == EngineKind::kCyclopsMT);
    }
    case algo::Workload::kAls: {
      const unsigned rounds = 10;
      if (kind == EngineKind::kHama) {
        algo::AlsBsp prog;
        prog.num_users = d.num_users;
        prog.rounds = rounds;
        RunOptions o = opts;
        o.max_supersteps = rounds + 2;
        return detail::run_bsp(g, d, prog, o);
      }
      algo::AlsCyclops prog;
      prog.num_users = d.num_users;
      prog.rounds = rounds;
      RunOptions o = opts;
      o.max_supersteps = rounds + 1;
      return detail::run_cyclops(g, d, prog, o, kind == EngineKind::kCyclopsMT);
    }
    case algo::Workload::kCd: {
      if (kind == EngineKind::kHama) {
        algo::CdBsp prog;
        return detail::run_bsp(g, d, prog, opts);
      }
      algo::CdCyclops prog;
      return detail::run_cyclops(g, d, prog, opts, kind == EngineKind::kCyclopsMT);
    }
    case algo::Workload::kSssp: {
      RunOptions o = opts;
      o.max_supersteps = 2000;  // push-mode needs diameter-many supersteps
      if (kind == EngineKind::kHama) {
        algo::SsspBsp prog;
        prog.source = 0;
        return detail::run_bsp(g, d, prog, o);
      }
      algo::SsspCyclops prog;
      prog.source = 0;
      return detail::run_cyclops(g, d, prog, o, kind == EngineKind::kCyclopsMT);
    }
  }
  return {};
}

/// Algorithm label for a dataset, as the paper's figure axes name them.
inline const char* workload_name(algo::Workload w) {
  switch (w) {
    case algo::Workload::kPageRank: return "PageRank";
    case algo::Workload::kAls: return "ALS";
    case algo::Workload::kCd: return "CD";
    case algo::Workload::kSssp: return "SSSP";
  }
  return "?";
}

}  // namespace cyclops::bench
