#pragma once
// The job catalog: the paper's (algorithm × engine) grid (Table 1, Fig. 9,
// Table 4) written once. It names every algorithm and engine (script token
// and paper label), says which pairs can run on a graph, and wires a pair to
// its program type and engine Config. The CLI, the service runner and the
// bench harness all dispatch through with_job(); each keeps its own
// partition step and its own result handling.

#include <array>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>

#include "cyclops/algorithms/als.hpp"
#include "cyclops/algorithms/cc.hpp"
#include "cyclops/algorithms/cd.hpp"
#include "cyclops/algorithms/pagerank.hpp"
#include "cyclops/algorithms/sssp.hpp"
#include "cyclops/bsp/engine.hpp"
#include "cyclops/common/check.hpp"
#include "cyclops/core/engine.hpp"
#include "cyclops/gas/engine.hpp"
#include "cyclops/graph/store.hpp"

namespace cyclops::algo {

enum class Algo { kPageRank, kSssp, kCd, kCc, kAls };
/// Hama = bsp::Engine, Cyclops and CyclopsMT = core::Engine (one worker per
/// machine with simulated threads), PowerGraph = gas::Engine.
enum class EngineKind { kHama, kCyclops, kCyclopsMT, kGas };

inline constexpr std::array kAlgos = {Algo::kPageRank, Algo::kSssp, Algo::kCd, Algo::kCc,
                                      Algo::kAls};
inline constexpr std::array kEngines = {EngineKind::kHama, EngineKind::kCyclops,
                                        EngineKind::kCyclopsMT, EngineKind::kGas};

/// CLI / serve-script token.
[[nodiscard]] constexpr const char* token(Algo a) {
  constexpr std::array<const char*, 5> kTokens = {"pr", "sssp", "cd", "cc", "als"};
  return kTokens[static_cast<std::size_t>(a)];
}
[[nodiscard]] constexpr const char* token(EngineKind e) {
  constexpr std::array<const char*, 4> kTokens = {"hama", "cyclops", "mt", "gas"};
  return kTokens[static_cast<std::size_t>(e)];
}

/// The paper's name, as figure axes and table rows print it.
[[nodiscard]] constexpr const char* label(Algo a) {
  constexpr std::array<const char*, 5> kLabels = {"PageRank", "SSSP", "CD", "CC", "ALS"};
  return kLabels[static_cast<std::size_t>(a)];
}
[[nodiscard]] constexpr const char* label(EngineKind e) {
  constexpr std::array<const char*, 4> kLabels = {"Hama", "Cyclops", "CyclopsMT",
                                                  "PowerGraph"};
  return kLabels[static_cast<std::size_t>(e)];
}

[[nodiscard]] inline std::optional<Algo> parse_algo(std::string_view tok) {
  for (const Algo a : kAlgos) {
    if (tok == token(a)) return a;
  }
  return std::nullopt;
}
[[nodiscard]] inline std::optional<EngineKind> parse_engine(std::string_view tok) {
  for (const EngineKind e : kEngines) {
    if (tok == token(e)) return e;
  }
  return std::nullopt;
}

/// What the algorithm's program is built from.
struct JobParams {
  double epsilon = 0;      ///< PageRank convergence threshold
  VertexId source = 0;     ///< SSSP
  VertexId num_users = 0;  ///< ALS bipartite split: vertices below it are users
  unsigned rounds = 0;     ///< ALS training rounds
};

/// What the engine's Config is built from.
struct ClusterShape {
  MachineId machines = 0;
  WorkerId workers_per_machine = 0;  ///< Hama / Cyclops partitions per machine
  unsigned mt_threads = 0;           ///< CyclopsMT compute threads per machine
  unsigned mt_receivers = 0;         ///< CyclopsMT receiver threads per machine
  Superstep max_supersteps = 0;
};

/// Empty when `algo` can run on `engine` over `g` with `p`; otherwise the
/// reason it cannot, naming the engine or the parameter at fault.
[[nodiscard]] inline std::string unsupported(Algo algo, EngineKind engine,
                                             const graph::GraphStore& g, const JobParams& p) {
  if (engine == EngineKind::kGas && algo != Algo::kPageRank && algo != Algo::kSssp) {
    return std::string(token(engine)) + " engine supports pr and sssp only, not " +
           token(algo);
  }
  if (algo == Algo::kSssp && p.source >= g.num_vertices()) {
    return "sssp source out of range";
  }
  if (algo == Algo::kAls && (p.num_users == 0 || p.num_users >= g.num_vertices())) {
    return "als requires 0 < num_users < num_vertices";
  }
  return {};
}

/// The engine Config one engine kind runs with on `s`. PowerGraph is
/// "essentially multithreaded" (§6.12): one partition per machine, like
/// CyclopsMT.
template <EngineKind E>
[[nodiscard]] auto engine_config(const ClusterShape& s) {
  if constexpr (E == EngineKind::kHama) {
    bsp::Config c;
    c.topo = sim::Topology{s.machines, s.workers_per_machine};
    c.max_supersteps = s.max_supersteps;
    return c;
  } else if constexpr (E == EngineKind::kGas) {
    gas::Config c;
    c.topo = sim::Topology{s.machines, 1};
    c.max_iterations = s.max_supersteps;
    return c;
  } else {
    core::Config c = E == EngineKind::kCyclopsMT
                         ? core::Config::cyclops_mt(s.machines, s.mt_threads, s.mt_receivers)
                         : core::Config::cyclops(s.machines, s.workers_per_machine);
    c.max_supersteps = s.max_supersteps;
    return c;
  }
}

/// True for engines that partition with a vertex cut (gas::Engine); the rest
/// take an edge cut with cfg.topo.total_workers() parts.
template <typename Engine>
inline constexpr bool kVertexCut = false;
template <typename Program>
inline constexpr bool kVertexCut<gas::Engine<Program>> = true;

namespace detail {

/// No program: the algorithm has no formulation for that engine family.
struct NoProgram {};

template <typename Fn, typename BspProg, typename CoreProg, typename GasProg = NoProgram>
auto on_engine(EngineKind e, const ClusterShape& s, Fn& fn, const BspProg& bsp_prog,
               const CoreProg& core_prog, const GasProg& gas_prog = {}) {
  switch (e) {
    case EngineKind::kHama:
      return fn(std::type_identity<bsp::Engine<BspProg>>{}, bsp_prog,
                engine_config<EngineKind::kHama>(s));
    case EngineKind::kCyclops:
      return fn(std::type_identity<core::Engine<CoreProg>>{}, core_prog,
                engine_config<EngineKind::kCyclops>(s));
    case EngineKind::kCyclopsMT:
      return fn(std::type_identity<core::Engine<CoreProg>>{}, core_prog,
                engine_config<EngineKind::kCyclopsMT>(s));
    case EngineKind::kGas:
      if constexpr (!std::is_same_v<GasProg, NoProgram>) {
        return fn(std::type_identity<gas::Engine<GasProg>>{}, gas_prog,
                  engine_config<EngineKind::kGas>(s));
      }
      break;
  }
  CYCLOPS_CHECK(false);  // unreachable: with_job checked unsupported() first
}

}  // namespace detail

/// Builds the program for (algo, engine) from `p` and the engine Config from
/// `s`, then returns fn(std::type_identity<Engine>{}, prog, cfg). `fn` builds
/// the partition, constructs `Engine(g, partition, prog, cfg)` and handles
/// the result; it must return one type for every engine. The pair must be
/// supported (unsupported() empty; CYCLOPS_CHECK enforces it).
template <typename Fn>
auto with_job(const graph::GraphStore& g, Algo algo, EngineKind engine, const JobParams& p,
              const ClusterShape& s, Fn&& fn) {
  CYCLOPS_CHECK(unsupported(algo, engine, g, p).empty());
  switch (algo) {
    case Algo::kPageRank:
      return detail::on_engine(
          engine, s, fn, PageRankBsp{.epsilon = p.epsilon},
          PageRankCyclops{.epsilon = p.epsilon},
          PageRankGas{.num_vertices = g.num_vertices(), .epsilon = p.epsilon});
    case Algo::kSssp:
      return detail::on_engine(engine, s, fn, SsspBsp{.source = p.source},
                               SsspCyclops{.source = p.source}, SsspGas{.source = p.source});
    case Algo::kCd:
      return detail::on_engine(engine, s, fn, CdBsp{}, CdCyclops{});
    case Algo::kCc:
      return detail::on_engine(engine, s, fn, CcBsp{}, CcCyclops{});
    case Algo::kAls:
      return detail::on_engine(engine, s, fn,
                               AlsBsp{.num_users = p.num_users, .rounds = p.rounds},
                               AlsCyclops{.num_users = p.num_users, .rounds = p.rounds});
  }
  CYCLOPS_CHECK(false);
}

}  // namespace cyclops::algo
