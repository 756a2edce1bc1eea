// The differential harness: one cell runner over the job catalog. A cell is
// an (algorithm, engine) pair from algo::with_job plus the axes that must not
// change its result — the graph store, the host thread count, the schedule,
// a crash the run recovers from — and the knobs that legitimately shape its
// run (cluster shape, partitioner, combiner, the force-all-active ablation).
// Every cell's values are checked against the sequential reference, and
// every cell's values and wire digest are checked bit for bit against the
// memory-store, one-thread, native-schedule cell. A faulty cell is checked
// against its fault-free twin: §3.6's claim, held strictly — a recovered run
// ends with the twin's values bit for bit, and log-based recovery also with
// its wire digest.
//
// Three kinds of tests use it: the graph-zoo sweep (every supported pair on
// every adversarial entry, every store, 1/2/4 threads and several
// schedules), the recovery sweep (every supported pair under every recovery
// mode, checkpoint mode, checkpoint cadence and 1/4 threads) and the named
// cases that predate the harness, each a harness call on its original graph,
// shape, partitioner, cap, crash points and recovery settings.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "cyclops/algorithms/catalog.hpp"
#include "cyclops/common/crc32.hpp"
#include "cyclops/core/layout.hpp"
#include "cyclops/gas/gas_layout.hpp"
#include "cyclops/graph/csr.hpp"
#include "cyclops/graph/delta_overlay.hpp"
#include "cyclops/graph/generators.hpp"
#include "cyclops/partition/multilevel.hpp"
#include "cyclops/partition/partition.hpp"
#include "cyclops/partition/vertex_cut.hpp"
#include "cyclops/runtime/recovery.hpp"
#include "cyclops/sim/fault.hpp"
#include "cyclops/sim/message_log.hpp"
#include "cyclops/sim/sched.hpp"
#include "catalog_job.hpp"
#include "test_util.hpp"

namespace cyclops::algo {
namespace {

using graph::StoreKind;
using runtime::CheckpointMode;
using runtime::RecoveryMode;

// ---- the cell runner --------------------------------------------------------

/// A crash the cell recovers from through runtime::run_with_recovery, and how
/// it checkpoints and recovers.
struct Fault {
  sim::FaultPlan plan;
  Superstep checkpoint_every = 0;  ///< 0 = none: a crash replays from superstep 0
  CheckpointMode mode = CheckpointMode::kLightweight;
  RecoveryMode recovery = RecoveryMode::kRollback;
  bool spill_log = false;                     ///< log modes: spill-backed MessageLog
  runtime::CheckpointStore* store = nullptr;  ///< none = run_with_recovery's memory store
};

struct Cell {
  Algo algo = Algo::kPageRank;
  EngineKind engine = EngineKind::kHama;
  JobParams params;
  ClusterShape shape;
  StoreKind store = StoreKind::kMemory;
  std::size_t pool_threads = 1;
  std::optional<std::uint64_t> seed = {};  ///< schedule explorer; none = the pool's native order
  const char* edge_cut = "hash";      ///< partitioner of the edge-cut engines
  bool greedy_cut = false;            ///< gas: GreedyVertexCut instead of RandomVertexCut
  bool use_combiner = false;          ///< Hama only
  bool force_all_active = false;      ///< Cyclops only
  std::optional<Fault> fault = {};    ///< none = a fault-free run
};

/// What a run produced: values flattened to doubles (padding-free), the
/// fabric's wire digest, the superstep count, the modeled run time (of the
/// last incarnation, for a faulty cell) and the recovery's accounting.
struct Outcome {
  std::vector<double> values;
  std::uint64_t wire = 0;
  std::size_t supersteps = 0;
  double modeled_s = 0;
  bool replicas_consistent = true;  ///< core engines: replicas equal their masters
  metrics::RecoveryStats recovery;
};

void flatten(double v, std::vector<double>& out) { out.push_back(v); }
void flatten(std::uint32_t v, std::vector<double>& out) { out.push_back(v); }
void flatten(const Factor& f, std::vector<double>& out) {
  out.insert(out.end(), f.begin(), f.end());
}
void flatten(const PageRankGas::Value& v, std::vector<double>& out) {
  out.push_back(v.rank);
  out.push_back(v.out_degree);
}

/// `stats` covers only the last incarnation's supersteps, so the superstep
/// count is read off the engine's counter.
template <typename Engine>
Outcome observe(const Engine& engine, const metrics::RunStats& stats) {
  Outcome o;
  for (const auto& v : engine.values()) flatten(v, o.values);
  o.wire = engine.fabric().wire_digest();
  o.supersteps = engine.superstep();
  o.modeled_s = stats.total_time_s();
  if constexpr (requires { engine.replicas_consistent(); }) {
    o.replicas_consistent = engine.replicas_consistent();
  }
  return o;
}

template <typename Engine>
Outcome run(Engine& engine) {
  const metrics::RunStats stats = engine.run();
  return observe(engine, stats);
}

/// The four store backends over one edge list. The delta store is a
/// DeltaOverlay whose base lacks every third edge and whose patch adds them
/// back, so it must present the same adjacency as a flat build.
class Stores {
 public:
  explicit Stores(const graph::EdgeList& e) {
    graph::StoreOptions opts;
    opts.mem_cap_bytes = 1 << 20;  // many stream window reloads
    for (const StoreKind k : {StoreKind::kMemory, StoreKind::kCompact, StoreKind::kStream}) {
      opts.kind = k;
      stores_[static_cast<std::size_t>(k)] = graph::make_store(e, opts);
    }
    graph::EdgeList base(e.num_vertices());
    std::vector<graph::Edge> adds;
    for (std::size_t i = 0; i < e.num_edges(); ++i) {
      const graph::Edge& x = e.edges()[i];
      if (i % 3 == 2) {
        adds.push_back(x);
      } else {
        base.add(x.src, x.dst, x.weight);
      }
    }
    base_ = graph::make_store(base);
    stores_[static_cast<std::size_t>(StoreKind::kDelta)] =
        std::make_unique<graph::DeltaOverlay>(*base_, adds, std::vector<graph::Edge>{});
  }
  const graph::GraphStore& operator[](StoreKind k) const {
    return *stores_[static_cast<std::size_t>(k)];
  }

 private:
  std::unique_ptr<const graph::GraphStore> base_;  // outlives the overlay over it
  std::array<std::unique_ptr<const graph::GraphStore>, 4> stores_;
};

constexpr std::array kStores = {StoreKind::kMemory, StoreKind::kCompact, StoreKind::kStream,
                                StoreKind::kDelta};

/// Runs `c` through with_job on its store, with the cell's host threads,
/// schedule and Config tweaks set on the Config with_job returns. A faulty
/// cell shares one FaultInjector — and, in the log modes, one MessageLog —
/// across every incarnation run_with_recovery builds.
Outcome run_cell(const Stores& stores, const Cell& c) {
  const graph::GraphStore& g = stores[c.store];
  return with_job(
      g, c.algo, c.engine, c.params, c.shape,
      [&]<typename Engine>(std::type_identity<Engine>, const auto& prog, auto cfg) {
        cfg.pool_threads = c.pool_threads;
        if (c.seed) cfg.schedule = std::make_shared<sim::ScheduleExplorer>(*c.seed);
        if constexpr (requires { cfg.use_combiner; }) cfg.use_combiner = c.use_combiner;
        if constexpr (requires { cfg.force_all_active; }) {
          cfg.force_all_active = c.force_all_active;
        }
        const WorkerId parts = cfg.topo.total_workers();
        const auto part = [&] {
          if constexpr (kVertexCut<Engine>) {
            return c.greedy_cut ? partition::GreedyVertexCut{}.partition(g, parts)
                                : partition::RandomVertexCut{}.partition(g, parts);
          } else {
            return partition::make_edge_cut_partitioner(c.edge_cut)->partition(g, parts);
          }
        }();
        if (!c.fault) {
          Engine engine(g, part, prog, cfg);
          return run(engine);
        }
        const Fault& f = *c.fault;
        cfg.faults = std::make_shared<sim::FaultInjector>(f.plan);
        if (f.recovery != RecoveryMode::kRollback) {
          cfg.message_log = f.spill_log ? std::make_shared<sim::MessageLog>(
                                              sim::LogStoreKind::kSpill, ::testing::TempDir())
                                        : std::make_shared<sim::MessageLog>();
        }
        auto r = runtime::run_with_recovery(
            [&] { return std::make_unique<Engine>(g, part, prog, cfg); },
            {.checkpoint_every = f.checkpoint_every, .mode = f.mode, .recovery = f.recovery},
            f.store);
        Outcome o = observe(*r.engine, r.run);
        o.recovery = r.recovery;
        return o;
      });
}

std::string describe(const Cell& c) {
  std::string s = std::string(token(c.engine)) + "/" + token(c.algo) + " store=" +
                  std::string(graph::store_kind_name(c.store)) +
                  " threads=" + std::to_string(c.pool_threads) +
                  " seed=" + (c.seed ? std::to_string(*c.seed) : "native");
  if (!c.fault) return s;
  const Fault& f = *c.fault;
  return s + " recovery=" + runtime::recovery_mode_name(f.recovery) +
         " checkpoint=" + runtime::checkpoint_mode_name(f.mode) + "/" +
         std::to_string(f.checkpoint_every) + " crash@" + std::to_string(f.plan.crash_at);
}

// ---- checks -----------------------------------------------------------------

/// How far a cell may sit from the sequential reference. SSSP, CC and CD are
/// exact: min-plus relaxation and label votes reach the same doubles and
/// labels in any order. ALS sums each neighborhood in the engine's delivery
/// order, not the reference's in-edge order, so rounding differs: 1e-7.
/// PageRank is held to its certificate instead of to the reference's
/// approximate fixpoint: algo::pagerank_residual, ‖x − T(x)‖₁ / (1 − d),
/// bounds the L1 distance from the values to the true fixpoint x*, and must
/// stay within 1e4·ε. Every engine stops once no rank moves by more than ε
/// per superstep; the largest certificate in the harness is about 3.8e3·ε
/// (Cyclops on R-MAT, 512 vertices). Every catalog pair iterates the same
/// T(x) = (1 − d)/n + d·A·x, dangling mass not redistributed.
double tolerance(const Cell& c) {
  if (c.algo == Algo::kPageRank) return 1e4 * c.params.epsilon;
  if (c.algo == Algo::kAls) return 1e-7;
  return 0;
}

/// The reference result flattened like Outcome::values (one double per
/// vertex, kAlsRank for ALS). CD's label propagation need not converge (a
/// lone edge swaps its labels forever), so it is compared at the number of
/// rounds the engine ran.
std::vector<double> reference(const graph::GraphStore& g, const Cell& c,
                              std::size_t supersteps) {
  switch (c.algo) {
    case Algo::kPageRank:
      return {};  // checked by its certificate, see tolerance()
    case Algo::kSssp:
      return sssp_reference(g, c.params.source);
    case Algo::kCc: {
      const auto labels = cc_reference(g);
      return {labels.begin(), labels.end()};
    }
    case Algo::kCd: {
      const auto rounds = static_cast<unsigned>(
          c.engine == EngineKind::kHama ? supersteps - 1 : supersteps);
      const auto labels = cd_reference(g, rounds);
      return {labels.begin(), labels.end()};
    }
    case Algo::kAls: {
      std::vector<double> out;
      for (const Factor& f : als_reference(g, c.params.num_users, c.params.rounds, 0.05)) {
        flatten(f, out);
      }
      return out;
    }
  }
  return {};
}

/// Each of the n vertices' values equal to `want`'s or closer than `tol`, compared on
/// `want`'s width per vertex (PageRankGas's (rank, out_degree) on its rank).
void expect_near(const std::vector<double>& got, const std::vector<double>& want, VertexId n,
                 double tol, const std::string& what) {
  ASSERT_GT(n, 0u) << what;
  ASSERT_EQ(got.size() % n, 0u) << what;
  ASSERT_EQ(want.size() % n, 0u) << what;
  const std::size_t gw = got.size() / n;
  const std::size_t ww = want.size() / n;
  ASSERT_LE(ww, gw) << what;
  for (VertexId v = 0; v < n; ++v) {
    for (std::size_t k = 0; k < ww; ++k) {
      const double a = got[v * gw + k];
      const double b = want[v * ww + k];
      ASSERT_TRUE(a == b || std::abs(a - b) < tol)
          << what << ": vertex " << v << "[" << k << "] = " << a << ", want " << b;
    }
  }
}

void expect_matches_reference(const graph::GraphStore& g, const Cell& c, const Outcome& o) {
  EXPECT_TRUE(o.replicas_consistent) << describe(c);
  if (c.algo == Algo::kPageRank) {
    // One rank per vertex: PageRankGas flattens to (rank, out_degree).
    const VertexId n = g.num_vertices();
    ASSERT_EQ(o.values.size() % n, 0u) << describe(c);
    const std::size_t width = o.values.size() / n;
    std::vector<double> rank(n);
    for (VertexId v = 0; v < n; ++v) rank[v] = o.values[v * width];
    EXPECT_LE(pagerank_residual(g, rank), tolerance(c))
        << describe(c) << ": certified L1 distance to the fixpoint";
    return;
  }
  expect_near(o.values, reference(g, c, o.supersteps), g.num_vertices(), tolerance(c),
              describe(c) + " vs reference");
}

/// Values compared as bytes: a reordered accumulation passes EXPECT_NEAR but
/// not this.
void expect_identical(const Outcome& want, const Outcome& got, const std::string& what,
                      bool wire = true) {
  if (wire) {
    EXPECT_EQ(got.wire, want.wire) << "wire digest diverged: " << what;
  }
  EXPECT_EQ(got.supersteps, want.supersteps) << what;
  ASSERT_EQ(got.values.size(), want.values.size()) << what;
  EXPECT_EQ(0, std::memcmp(got.values.data(), want.values.data(),
                           want.values.size() * sizeof(double)))
      << "values diverged: " << what;
}

/// The digest of a fabric that never delivered a package (FNV-1a's basis).
constexpr std::uint64_t kEmptyWire = 0xcbf29ce484222325ULL;

std::uint32_t crashes(const sim::FaultPlan& p) {
  return (p.crash_at != sim::kNeverCrash ? 1u : 0u) + (p.crash2_at != sim::kNeverCrash ? 1u : 0u);
}

/// A faulty cell against its fault-free twin: every crash fired and was
/// recovered, and the run ended where the twin did, bit for bit. A rollback
/// incarnation's fabric restarts its wire digest, so only the log modes,
/// which seed it across incarnations and verify every replayed package
/// against the log, are held to the twin's digest.
void expect_recovered(const Outcome& twin, const Outcome& got, const Cell& c) {
  const std::string what = describe(c);
  const metrics::RecoveryStats& r = got.recovery;
  EXPECT_GE(r.faults_detected, 1u) << "the crash never fired: " << what;
  EXPECT_EQ(r.recoveries, crashes(c.fault->plan)) << what;
  EXPECT_TRUE(got.replicas_consistent) << what;
  const bool logged = c.fault->recovery != RecoveryMode::kRollback;
  expect_identical(twin, got, what, logged);
  if (!logged) return;
  EXPECT_EQ(r.replay_log_mismatches, 0u) << what;
  EXPECT_GT(r.log_packages, 0u) << what;
  if (r.lost_supersteps > 0) {
    EXPECT_GT(r.replay_verified_packages, 0u) << what;
  }
}

// ---- the graph zoo ----------------------------------------------------------

constexpr double kHuge = 1e300;
using Pairs = std::initializer_list<std::pair<VertexId, VertexId>>;

struct ZooEntry {
  const char* name;
  graph::EdgeList (*make)();
};

const std::array<ZooEntry, 8> kZoo = {{
    {"self_loops",
     [] {
       graph::EdgeList e(6);
       for (VertexId v = 0; v < 6; ++v) e.add(v, v, 1.0 + v);
       for (const auto& [u, v] : Pairs{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 5}, {5, 3}}) {
         e.add(u, v, 0.5 + u);
       }
       return e;
     }},
    // Vertex 0 has 48 out-edges: two parallels, weights 2 and 1, to each of
    // 1..24 (past std::sort's 16-entry insertion-sort cutoff), and 25 has two
    // equal-weight parallels back to 0.
    {"multi_edge_hub",
     [] {
       graph::EdgeList e(26);
       for (VertexId v = 1; v <= 24; ++v) e.add(0, v, 2.0);
       for (VertexId v = 1; v <= 24; ++v) {
         e.add(0, v, 1.0);
         e.add(v, 25, 0.25 * v);
       }
       e.add(25, 0, 3.0);
       e.add(25, 0, 3.0);
       return e;
     }},
    // multi_edge_hub minimized for ALS: one rating given twice, with two
    // values, each of which must count once.
    {"distinct_parallels",
     [] {
       graph::EdgeList e(2);
       e.add(0, 1, 2.0);
       e.add(0, 1, 1.0);
       return e;
     }},
    {"isolated_vertices",
     [] {
       graph::EdgeList e(10);  // 1, 4, 7 and 9 have no edges
       for (const auto& [u, v] : Pairs{{0, 2}, {2, 3}, {3, 0}, {0, 5}, {5, 6}, {6, 8}, {8, 5}}) {
         e.add(u, v, 1.0 + v);
       }
       return e;
     }},
    {"zero_and_huge_weights",
     [] {
       graph::EdgeList e(6);
       e.add(0, 1, 0.0);
       e.add(1, 2, kHuge);
       e.add(0, 2, kHuge);
       e.add(2, 3, 0.0);
       e.add(3, 4, kHuge);
       e.add(1, 4, 0.0);
       e.add(4, 5, 0.0);
       e.add(5, 0, kHuge);
       return e;
     }},
    {"disconnected",
     [] {
       graph::EdgeList e(9);  // a cycle, a chain and a lone edge
       for (const auto& [u, v] : Pairs{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 6}, {7, 8}}) {
         e.add(u, v, 1.0 + u);
       }
       return e;
     }},
    {"one_vertex", [] { return graph::EdgeList(1); }},
    {"no_edges", [] { return graph::EdgeList(5); }},
}};

/// An entry shaped to the algorithm's input contract: CC and CD read the
/// graph as undirected, and ALS as a ratings graph in which edge u->v is
/// user u rating item n+v. PageRank and SSSP take it as it is.
graph::EdgeList adapt(const graph::EdgeList& e, Algo a) {
  if (a == Algo::kPageRank || a == Algo::kSssp) return e;
  const VertexId n = e.num_vertices();
  graph::EdgeList out(a == Algo::kAls ? 2 * n : n);
  for (const graph::Edge& x : e.edges()) {
    out.add_undirected(x.src, a == Algo::kAls ? n + x.dst : x.dst, x.weight);
  }
  return out;
}

struct ZooCase {
  std::size_t entry;
  Algo algo;
  EngineKind engine;
};

std::vector<ZooCase> zoo_cases() {
  std::vector<ZooCase> cases;
  for (std::size_t i = 0; i < kZoo.size(); ++i) {
    for (const Algo a : kAlgos) {
      for (const EngineKind e : kEngines) {
        const graph::Csr g = graph::Csr::build(adapt(kZoo[i].make(), a));
        if (unsupported(a, e, g, JobParams{.num_users = g.num_vertices() / 2}).empty()) {
          cases.push_back({i, a, e});
        }
      }
    }
  }
  return cases;
}

class Differential : public ::testing::TestWithParam<ZooCase> {};

constexpr std::optional<std::uint64_t> kZooSeeds[] = {std::nullopt, 3, 11};

TEST_P(Differential, EveryStoreThreadCountAndSchedule) {
  const auto [entry, algo, engine] = GetParam();
  const graph::EdgeList e = adapt(kZoo[entry].make(), algo);
  const Stores stores(e);
  Cell c{.algo = algo,
         .engine = engine,
         .params = {.epsilon = 1e-12,
                    .source = 0,
                    .num_users = kZoo[entry].make().num_vertices(),
                    .rounds = 4},
         .shape = {.machines = 2,
                   .workers_per_machine = 2,
                   .mt_threads = 3,
                   .mt_receivers = 2,
                   .max_supersteps = 300}};
  const Outcome base = run_cell(stores, c);
  expect_matches_reference(stores[StoreKind::kMemory], c, base);
  for (const StoreKind store : kStores) {
    for (const std::size_t threads : {1, 2, 4}) {
      for (const auto seed : kZooSeeds) {
        c.store = store;
        c.pool_threads = threads;
        c.seed = seed;
        expect_identical(base, run_cell(stores, c), describe(c));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Zoo, Differential, ::testing::ValuesIn(zoo_cases()),
                         [](const ::testing::TestParamInfo<ZooCase>& info) {
                           const ZooCase& z = info.param;
                           return std::string(kZoo[z.entry].name) + "_" + token(z.engine) +
                                  "_" + token(z.algo);
                         });

// ---- the recovery sweep -----------------------------------------------------

sim::FaultPlan crash(Superstep at, MachineId machine = 0) {
  sim::FaultPlan plan;
  plan.crash_at = at;
  plan.crash_machine = machine;
  return plan;
}

struct Pair {
  Algo algo;
  EngineKind engine;
};

std::vector<Pair> catalog_pairs() {
  const graph::Csr g = graph::Csr::build(test::catalog_graph());
  std::vector<Pair> pairs;
  for (const Algo a : kAlgos) {
    for (const EngineKind e : kEngines) {
      if (unsupported(a, e, g, test::kCatalogParams).empty()) pairs.push_back({a, e});
    }
  }
  return pairs;
}

class FaultAxis : public ::testing::TestWithParam<Pair> {};

/// Every pair on 3 machines × 2 workers loses its last machine halfway
/// through the twin's S supersteps and recovers under every recovery mode,
/// checkpoint mode and cadence (every superstep, every ⌈S/3⌉, none — a
/// replay from scratch), on 1 and 4 host threads.
TEST_P(FaultAxis, EveryModeCadenceAndThreadCount) {
  const auto [algo, engine] = GetParam();
  const graph::EdgeList e = algo == Algo::kPageRank ? graph::gen::rmat(8, 1600, 2014)
                            : algo == Algo::kAls    ? test::catalog_graph()
                                                    : graph::gen::road_grid({14, 14}, 3);
  const Stores stores(e);
  // Label propagation never settles on the lattice, so CD runs to its cap.
  Cell c{.algo = algo,
         .engine = engine,
         .params = algo == Algo::kAls ? test::kCatalogParams : JobParams{.epsilon = 1e-11},
         .shape = {.machines = 3,
                   .workers_per_machine = 2,
                   .mt_threads = 2,
                   .mt_receivers = 2,
                   .max_supersteps = algo == Algo::kCd ? 40u : 400u}};
  for (const std::size_t threads : {1, 4}) {
    c.pool_threads = threads;
    c.fault.reset();
    const Outcome twin = run_cell(stores, c);
    expect_matches_reference(stores[StoreKind::kMemory], c, twin);
    const auto s = static_cast<Superstep>(twin.supersteps);
    for (const RecoveryMode recovery :
         {RecoveryMode::kRollback, RecoveryMode::kLog, RecoveryMode::kLogParallel}) {
      for (const CheckpointMode mode :
           {CheckpointMode::kLightweight, CheckpointMode::kHeavyweight}) {
        for (const Superstep every : {Superstep{1}, (s + 2) / 3, Superstep{0}}) {
          c.fault = Fault{.plan = crash(s / 2, c.shape.machines - 1),
                          .checkpoint_every = every,
                          .mode = mode,
                          .recovery = recovery};
          expect_recovered(twin, run_cell(stores, c), c);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Recovery, FaultAxis, ::testing::ValuesIn(catalog_pairs()),
                         [](const ::testing::TestParamInfo<Pair>& info) {
                           return std::string(token(info.param.engine)) + "_" +
                                  token(info.param.algo);
                         });

// ---- named cases ------------------------------------------------------------

/// A cell on `machines` × `per_machine`: what workers(m) and cyclops(m, w)
/// build by hand.
Cell cell(Algo a, EngineKind e, MachineId machines, WorkerId per_machine, Superstep cap,
          JobParams p = {}) {
  return Cell{.algo = a,
              .engine = e,
              .params = p,
              .shape = {.machines = machines,
                        .workers_per_machine = per_machine,
                        .max_supersteps = cap}};
}

/// Runs `c` on every store and requires every outcome to be bit-identical to
/// the memory store's, with traffic on the wire.
void expect_store_independent(const graph::EdgeList& e, Cell c) {
  const Stores stores(e);
  const Outcome base = run_cell(stores, c);
  EXPECT_NE(base.wire, kEmptyWire) << "engine put nothing on the wire";
  for (const StoreKind k : kStores) {
    c.store = k;
    expect_identical(base, run_cell(stores, c), describe(c));
  }
}

/// Runs `c` on the memory store and checks it against the reference.
Outcome expect_reference(const graph::EdgeList& e, const Cell& c) {
  const Stores stores(e);
  Outcome o = run_cell(stores, c);
  expect_matches_reference(stores[StoreKind::kMemory], c, o);
  return o;
}

constexpr JobParams pr(double epsilon) { return {.epsilon = epsilon}; }

TEST(StoreEquivalence, BspPageRank) {
  expect_store_independent(graph::gen::rmat(9, 3000, 17),
                           cell(Algo::kPageRank, EngineKind::kHama, 4, 1, 100, pr(1e-10)));
}

TEST(StoreEquivalence, BspSssp) {
  expect_store_independent(graph::gen::road_grid({24, 24, 0.1}, 3),
                           cell(Algo::kSssp, EngineKind::kHama, 4, 1, 300));
}

TEST(StoreEquivalence, CyclopsCc) {
  expect_store_independent(graph::gen::erdos_renyi(600, 1500, 31),
                           cell(Algo::kCc, EngineKind::kCyclops, 2, 2, 200));
}

TEST(StoreEquivalence, CyclopsPageRankAblation) {
  // The force_all_active ablation floods every superstep with full traffic —
  // the heaviest wire load, so the most sensitive digest.
  Cell c = cell(Algo::kPageRank, EngineKind::kCyclops, 2, 2, 30, pr(1e-9));
  c.force_all_active = true;
  expect_store_independent(graph::gen::rmat(9, 3000, 53), c);
}

TEST(StoreEquivalence, CyclopsMtSssp) {
  Cell c = cell(Algo::kSssp, EngineKind::kCyclopsMT, 2, 1, 300);
  c.shape.mt_threads = 2;
  c.shape.mt_receivers = 2;
  expect_store_independent(graph::gen::road_grid({20, 20, 0.1}, 9), c);
}

TEST(StoreEquivalence, GasPageRank) {
  Cell c = cell(Algo::kPageRank, EngineKind::kGas, 4, 1, 100, pr(1e-10));
  c.greedy_cut = true;
  expect_store_independent(graph::gen::rmat(9, 3000, 71), c);
}

TEST(StoreEquivalence, GasSssp) {
  expect_store_independent(graph::gen::road_grid({20, 20, 0.1}, 13),
                           cell(Algo::kSssp, EngineKind::kGas, 3, 1, 300));
}

// Wire determinism: the traffic a seeded workload puts on the fabric must be
// bit-identical across runs, content and order. A combiner drained in hash
// order would give the right ranks and a different wire.

Outcome run_twice_identically(const graph::EdgeList& e, const Cell& c) {
  const Stores stores(e);
  const Outcome a = run_cell(stores, c);
  expect_identical(a, run_cell(stores, c), describe(c) + " rerun");
  return a;
}

Cell bsp_pagerank(bool use_combiner) {
  Cell c = cell(Algo::kPageRank, EngineKind::kHama, 4, 1, 120, pr(1e-11));
  c.use_combiner = use_combiner;
  return c;
}

TEST(WireDeterminism, BspCombinerTrafficIsBitIdenticalAcrossRuns) {
  const Outcome o = run_twice_identically(graph::gen::rmat(8, 1500, 13), bsp_pagerank(true));
  EXPECT_NE(o.wire, kEmptyWire) << "digest never folded a package";
}

TEST(WireDeterminism, BspUncombinedTrafficIsBitIdenticalAcrossRuns) {
  run_twice_identically(graph::gen::rmat(8, 1500, 13), bsp_pagerank(false));
}

TEST(WireDeterminism, CyclopsSyncTrafficIsBitIdenticalAcrossRuns) {
  run_twice_identically(graph::gen::rmat(8, 1500, 29),
                        cell(Algo::kSssp, EngineKind::kCyclops, 2, 2, 200));
}

TEST(WireDeterminism, GasPageRankTrafficIsBitIdenticalAcrossRuns) {
  // PowerGraph over a random vertex cut: all four master<->mirror exchanges.
  const Outcome o = run_twice_identically(
      graph::gen::rmat(8, 1500, 13), cell(Algo::kPageRank, EngineKind::kGas, 4, 1, 120, pr(1e-11)));
  EXPECT_NE(o.wire, kEmptyWire) << "digest never folded a package";
}

// Combining changes the wire layout (fewer, merged records), so the digests
// must differ: the digest reflects wire bytes, not results.
TEST(WireDeterminism, DigestDistinguishesCombinerWireLayout) {
  const Stores stores(graph::gen::rmat(8, 1500, 13));
  EXPECT_NE(run_cell(stores, bsp_pagerank(true)).wire, run_cell(stores, bsp_pagerank(false)).wire);
}

// Schedule independence: runs under 8 different task interleavings (each
// seed permutes the pool's task order and chunking) must be bit-identical.
void expect_schedule_independent(std::uint64_t graph_seed, Cell c) {
  const Stores stores(graph::gen::rmat(8, 1500, graph_seed));
  c.seed = 0;
  const Outcome base = run_cell(stores, c);
  EXPECT_NE(base.wire, kEmptyWire);
  for (std::uint64_t seed = 1; seed < 8; ++seed) {
    c.seed = seed;
    expect_identical(base, run_cell(stores, c), describe(c));
  }
}

TEST(ScheduleIndependence, CyclopsPageRankIsBitIdenticalAcross8Schedules) {
  expect_schedule_independent(13,
                              cell(Algo::kPageRank, EngineKind::kCyclops, 2, 2, 200, pr(1e-11)));
}

TEST(ScheduleIndependence, CyclopsSsspIsBitIdenticalAcross8Schedules) {
  expect_schedule_independent(29, cell(Algo::kSssp, EngineKind::kCyclops, 2, 2, 200));
}

TEST(ScheduleIndependence, CyclopsCcIsBitIdenticalAcross8Schedules) {
  expect_schedule_independent(47, cell(Algo::kCc, EngineKind::kCyclops, 2, 2, 200));
}

TEST(ScheduleIndependence, BspPageRankIsBitIdenticalAcross8Schedules) {
  expect_schedule_independent(13, bsp_pagerank(true));
}

// gtest names each case by the raw bytes of its parameter, so the padding
// is spelled out and zeroed: implicit padding holds stack garbage and would
// give the tests a different name on every run.
struct PrCase {
  WorkerId workers;
  bool multilevel;
  std::uint8_t pad[3] = {};
  unsigned mt_threads;  // 0 = plain Cyclops
};
static_assert(std::has_unique_object_representations_v<PrCase>,
              "PrCase must have no implicit padding");

class PageRankAllEngines : public ::testing::TestWithParam<PrCase> {};

TEST_P(PageRankAllEngines, AgreeWithReference) {
  const auto [workers, multilevel, pad, mt_threads] = GetParam();
  const graph::EdgeList e = graph::gen::rmat(9, 3500, 2014);
  for (const EngineKind engine :
       {EngineKind::kHama, mt_threads > 0 ? EngineKind::kCyclopsMT : EngineKind::kCyclops,
        EngineKind::kGas}) {
    Cell c = cell(Algo::kPageRank, engine, workers, 1, 300, pr(1e-12));
    c.shape.mt_threads = mt_threads;
    c.shape.mt_receivers = 2;
    c.edge_cut = multilevel ? "multilevel" : "hash";
    c.greedy_cut = true;
    expect_reference(e, c);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PageRankAllEngines,
    ::testing::Values(
        PrCase{.workers = 1, .multilevel = false, .mt_threads = 0},
        PrCase{.workers = 2, .multilevel = false, .mt_threads = 0},
        PrCase{.workers = 4, .multilevel = false, .mt_threads = 0},
        PrCase{.workers = 4, .multilevel = true, .mt_threads = 0},
        PrCase{.workers = 6, .multilevel = false, .mt_threads = 4},
        PrCase{.workers = 6, .multilevel = true, .mt_threads = 8},
        PrCase{.workers = 12, .multilevel = false, .mt_threads = 0},
        PrCase{.workers = 16, .multilevel = true, .mt_threads = 2}));

/// Hama and Cyclops on `workers` × 1, each checked against the reference and
/// against each other. The cross check is what holds CD: its reference is
/// taken at each engine's own round count, so an engine that halted early
/// would still match it.
void expect_bsp_and_cyclops_match(const graph::EdgeList& e, Algo a, WorkerId workers,
                                  Superstep cap) {
  const Outcome bsp = expect_reference(e, cell(a, EngineKind::kHama, workers, 1, cap));
  const Outcome cyclops = expect_reference(e, cell(a, EngineKind::kCyclops, workers, 1, cap));
  EXPECT_EQ(bsp.values, cyclops.values);
}

class SsspEngines : public ::testing::TestWithParam<WorkerId> {};

TEST_P(SsspEngines, BspAndCyclopsMatchDijkstra) {
  expect_bsp_and_cyclops_match(graph::gen::road_grid({18, 18, 0.02}, 2014), Algo::kSssp,
                               GetParam(), 600);
}

INSTANTIATE_TEST_SUITE_P(Workers, SsspEngines, ::testing::Values(1u, 2u, 5u, 8u));

TEST(CdEngines, BspAndCyclopsAgreeAtConvergence) {
  expect_bsp_and_cyclops_match(graph::gen::planted_communities({6, 40, 8, 0.95}, 2014),
                               Algo::kCd, 4, 60);
}

TEST(AlsEngines, AllAgreeWithReference) {
  const graph::EdgeList e = graph::gen::bipartite_ratings({100, 30, 6}, 2014);
  const JobParams p{.num_users = 100, .rounds = 6};
  expect_reference(e, cell(Algo::kAls, EngineKind::kHama, 3, 1, p.rounds + 3, p));
  expect_reference(e, cell(Algo::kAls, EngineKind::kCyclops, 3, 1, p.rounds + 1, p));
}

struct CcCase {
  unsigned kind;
  WorkerId workers;
  std::uint64_t seed;
};

class CcEngines : public ::testing::TestWithParam<CcCase> {};

TEST_P(CcEngines, BspAndCyclopsMatchUnionFind) {
  const auto [kind, workers, seed] = GetParam();
  graph::EdgeList e;
  if (kind == 0) {
    // Sparse ER stored undirected: many components.
    const graph::EdgeList er = graph::gen::erdos_renyi(400, 250, seed);
    e = graph::EdgeList(400);
    for (const graph::Edge& x : er.edges()) e.add_undirected(x.src, x.dst);
  } else if (kind == 1) {
    e = graph::gen::planted_communities({5, 30, 4, 0.98}, seed);
  } else {
    e = graph::gen::preferential_attachment(300, 2, seed);
  }
  expect_bsp_and_cyclops_match(e, Algo::kCc, workers, 300);
}

INSTANTIATE_TEST_SUITE_P(Sweep, CcEngines,
                         ::testing::Values(CcCase{0, 2, 1}, CcCase{0, 5, 2}, CcCase{1, 3, 3},
                                           CcCase{1, 6, 4}, CcCase{2, 4, 5}, CcCase{2, 8, 6}));

// All three execution models share the runtime and must agree on one input.
TEST(EngineEquivalence, PageRankAgreesAcrossAllThreeEngines) {
  const Stores stores(graph::gen::rmat(9, 3000, 77));
  Cell c = cell(Algo::kPageRank, EngineKind::kHama, 4, 1, 300, pr(1e-12));
  const graph::GraphStore& g = stores[StoreKind::kMemory];
  const Outcome bsp = run_cell(stores, c);
  expect_matches_reference(g, c, bsp);
  const VertexId n = g.num_vertices();
  const double tol = tolerance(c);
  c.engine = EngineKind::kCyclops;
  const Outcome cyclops = run_cell(stores, c);
  expect_matches_reference(g, c, cyclops);
  expect_near(cyclops.values, bsp.values, n, tol, "cyclops vs bsp");
  c.engine = EngineKind::kGas;
  c.greedy_cut = true;
  const Outcome gas = run_cell(stores, c);
  expect_matches_reference(g, c, gas);
  expect_near(gas.values, bsp.values, n, tol, "gas vs bsp");
}

TEST(EngineEquivalence, SsspAgreesBetweenBspAndCyclops) {
  graph::gen::RoadSpec spec;
  spec.rows = 20;
  spec.cols = 20;
  expect_bsp_and_cyclops_match(graph::gen::road_grid(spec, 7), Algo::kSssp, 3, 500);
}

// with_job against engines built by hand, with the program and Config the
// CLI and the service runner used to construct themselves: the only check
// that with_job wires CyclopsMT's threads and receivers right.

constexpr MachineId kMachines = 2;
constexpr WorkerId kPerMachine = 2;
constexpr unsigned kThreads = 3;
constexpr unsigned kReceivers = 2;
constexpr Superstep kCap = 30;
constexpr JobParams kParams = test::kCatalogParams;

template <typename Prog>
Outcome by_hand_hama(const graph::Csr& g, const Prog& prog) {
  bsp::Config cfg;
  cfg.topo = sim::Topology{kMachines, kPerMachine};
  cfg.max_supersteps = kCap;
  bsp::Engine<Prog> engine(g, test::hash_partition(g, kMachines * kPerMachine), prog, cfg);
  return run(engine);
}

template <typename Prog>
Outcome by_hand_cyclops(const graph::Csr& g, const Prog& prog, bool mt) {
  core::Config cfg = mt ? core::Config::cyclops_mt(kMachines, kThreads, kReceivers)
                        : core::Config::cyclops(kMachines, kPerMachine);
  cfg.max_supersteps = kCap;
  core::Engine<Prog> engine(g, test::hash_partition(g, mt ? kMachines : kMachines * kPerMachine),
                            prog, cfg);
  return run(engine);
}

template <typename Prog>
Outcome by_hand_gas(const graph::Csr& g, const Prog& prog) {
  gas::Config cfg;
  cfg.topo = sim::Topology{kMachines, 1};
  cfg.max_iterations = kCap;
  gas::Engine<Prog> engine(g, partition::RandomVertexCut{}.partition(g, kMachines), prog, cfg);
  return run(engine);
}

struct HandBuilt {
  Algo algo;
  EngineKind engine;
  std::function<Outcome(const graph::Csr&)> run;
};

std::vector<HandBuilt> hand_built() {
  const PageRankBsp pr_bsp{.epsilon = kParams.epsilon};
  const PageRankCyclops pr_cy{.epsilon = kParams.epsilon};
  const SsspBsp sssp_bsp{.source = kParams.source};
  const SsspCyclops sssp_cy{.source = kParams.source};
  const AlsBsp als_bsp{.num_users = kParams.num_users, .rounds = kParams.rounds};
  const AlsCyclops als_cy{.num_users = kParams.num_users, .rounds = kParams.rounds};
  using A = Algo;
  using E = EngineKind;
  return {
      {A::kPageRank, E::kHama, [=](const auto& g) { return by_hand_hama(g, pr_bsp); }},
      {A::kPageRank, E::kCyclops, [=](const auto& g) { return by_hand_cyclops(g, pr_cy, false); }},
      {A::kPageRank, E::kCyclopsMT, [=](const auto& g) { return by_hand_cyclops(g, pr_cy, true); }},
      {A::kPageRank, E::kGas,
       [](const auto& g) {
         return by_hand_gas(g, PageRankGas{.num_vertices = g.num_vertices(), .epsilon = kParams.epsilon});
       }},
      {A::kSssp, E::kHama, [=](const auto& g) { return by_hand_hama(g, sssp_bsp); }},
      {A::kSssp, E::kCyclops, [=](const auto& g) { return by_hand_cyclops(g, sssp_cy, false); }},
      {A::kSssp, E::kCyclopsMT, [=](const auto& g) { return by_hand_cyclops(g, sssp_cy, true); }},
      {A::kSssp, E::kGas, [](const auto& g) { return by_hand_gas(g, SsspGas{.source = kParams.source}); }},
      {A::kCd, E::kHama, [](const auto& g) { return by_hand_hama(g, CdBsp{}); }},
      {A::kCd, E::kCyclops, [](const auto& g) { return by_hand_cyclops(g, CdCyclops{}, false); }},
      {A::kCd, E::kCyclopsMT, [](const auto& g) { return by_hand_cyclops(g, CdCyclops{}, true); }},
      {A::kCc, E::kHama, [](const auto& g) { return by_hand_hama(g, CcBsp{}); }},
      {A::kCc, E::kCyclops, [](const auto& g) { return by_hand_cyclops(g, CcCyclops{}, false); }},
      {A::kCc, E::kCyclopsMT, [](const auto& g) { return by_hand_cyclops(g, CcCyclops{}, true); }},
      {A::kAls, E::kHama, [=](const auto& g) { return by_hand_hama(g, als_bsp); }},
      {A::kAls, E::kCyclops, [=](const auto& g) { return by_hand_cyclops(g, als_cy, false); }},
      {A::kAls, E::kCyclopsMT, [=](const auto& g) { return by_hand_cyclops(g, als_cy, true); }},
  };
}

TEST(Catalog, WithJobMatchesHandBuiltEngines) {
  const graph::EdgeList e = test::catalog_graph();
  const graph::Csr g = graph::Csr::build(e);
  const Stores stores(e);
  const std::vector<HandBuilt> cases = hand_built();
  ASSERT_EQ(cases.size(), 17u);
  for (const HandBuilt& h : cases) {
    const Cell c{.algo = h.algo,
                 .engine = h.engine,
                 .params = kParams,
                 .shape = {.machines = kMachines,
                           .workers_per_machine = kPerMachine,
                           .mt_threads = kThreads,
                           .mt_receivers = kReceivers,
                           .max_supersteps = kCap}};
    ASSERT_EQ(unsupported(c.algo, c.engine, g, kParams), "") << describe(c);
    const Outcome want = h.run(g);
    const Outcome got = run_cell(stores, c);
    ASSERT_FALSE(want.values.empty()) << describe(c);
    expect_identical(want, got, describe(c));
    EXPECT_EQ(got.modeled_s, want.modeled_s) << describe(c);
  }
}

// ---- named recovery cases ---------------------------------------------------

Cell with_fault(Cell c, const Fault& f) {
  c.fault = f;
  return c;
}

/// Runs `c` without its fault — the twin, checked against the reference —
/// and with it, checks the faulty run against the twin and returns the
/// faulty run's recovery accounting.
metrics::RecoveryStats expect_recovers(const graph::EdgeList& e, const Cell& c) {
  const Stores stores(e);
  Cell twin_cell = c;
  twin_cell.fault.reset();
  const Outcome twin = run_cell(stores, twin_cell);
  expect_matches_reference(stores[StoreKind::kMemory], twin_cell, twin);
  const Outcome got = run_cell(stores, c);
  expect_recovered(twin, got, c);
  return got.recovery;
}

graph::EdgeList rmat_2014() { return graph::gen::rmat(8, 1600, 2014); }
graph::EdgeList road() { return graph::gen::road_grid({14, 14}, 3); }

TEST(AutoRecovery, BspPageRankRecoversFromCrash) {
  const auto r = expect_recovers(
      rmat_2014(), with_fault(cell(Algo::kPageRank, EngineKind::kHama, 4, 1, 200, pr(1e-11)),
                              {.plan = crash(10, 2),
                               .checkpoint_every = 3,
                               .mode = CheckpointMode::kHeavyweight}));
  // Checkpoints land at boundaries 3, 6, 9; the crash in superstep 10 loses
  // exactly the one superstep past the newest snapshot.
  EXPECT_EQ(r.lost_supersteps, 1u);
  EXPECT_GT(r.checkpoints_taken, 0u);
  EXPECT_GT(r.modeled_recovery_s, 0.0);
}

TEST(AutoRecovery, CyclopsPageRankRecoversFromCrash) {
  const auto r = expect_recovers(
      rmat_2014(), with_fault(cell(Algo::kPageRank, EngineKind::kCyclops, 4, 1, 200, pr(1e-11)),
                              {.plan = crash(11, 0), .checkpoint_every = 4}));
  EXPECT_EQ(r.lost_supersteps, 11u - 8u);  // rolled back to the checkpoint at 8
}

TEST(AutoRecovery, CyclopsSsspRecoversFromCrash) {
  expect_recovers(road(), with_fault(cell(Algo::kSssp, EngineKind::kCyclops, 3, 1, 400),
                                     {.plan = crash(7), .checkpoint_every = 5}));
}

TEST(AutoRecovery, BspSsspRecoversFromCrash) {
  expect_recovers(road(), with_fault(cell(Algo::kSssp, EngineKind::kHama, 3, 1, 400),
                                     {.plan = crash(6),
                                      .checkpoint_every = 4,
                                      .mode = CheckpointMode::kHeavyweight}));
}

TEST(AutoRecovery, GasPageRankRecoversFromCrash) {
  expect_recovers(rmat_2014(),
                  with_fault(cell(Algo::kPageRank, EngineKind::kGas, 4, 1, 200, pr(1e-11)),
                             {.plan = crash(10), .checkpoint_every = 4}));
}

TEST(AutoRecovery, GasSsspRecoversFromCrash) {
  expect_recovers(graph::gen::rmat(8, 1600, 99),
                  with_fault(cell(Algo::kSssp, EngineKind::kGas, 3, 1, 200),
                             {.plan = crash(3), .checkpoint_every = 2}));
}

TEST(AutoRecovery, CrashWithoutCheckpointReplaysFromScratch) {
  const auto r = expect_recovers(
      graph::gen::rmat(7, 600, 5),
      with_fault(cell(Algo::kPageRank, EngineKind::kCyclops, 2, 1, 60, pr(1e-10)),
                 {.plan = crash(5)}));
  EXPECT_EQ(r.checkpoints_taken, 0u);
  EXPECT_EQ(r.lost_supersteps, 5u);  // everything replayed
}

// An identical fault seed means an identical fault schedule: identical
// RecoveryStats, field by field, and bit-identical values.
TEST(Determinism, IdenticalSeedsIdenticalRecovery) {
  sim::FaultPlan plan = crash(7, 1);
  plan.seed = 1234;
  plan.drop_rate = 0.1;
  plan.corrupt_rate = 0.05;
  const graph::EdgeList e = graph::gen::rmat(8, 1800, 33);
  const Cell c = with_fault(cell(Algo::kPageRank, EngineKind::kCyclops, 4, 1, 80, pr(1e-10)),
                            {.plan = plan, .checkpoint_every = 3});
  const metrics::RecoveryStats a = expect_recovers(e, c);
  const metrics::RecoveryStats b = expect_recovers(e, c);
  EXPECT_GT(a.retransmissions, 0u);
  // modeled_recovery_s prices the replayed window from the run's modeled
  // per-superstep times, so like every other field it matches bit for bit.
  const auto fields = [](const metrics::RecoveryStats& r) {
    return std::tie(r.checkpoints_taken, r.checkpoint_bytes_written, r.last_checkpoint_bytes,
                    r.modeled_checkpoint_s, r.faults_detected, r.recoveries,
                    r.corrupt_checkpoints, r.lost_supersteps, r.modeled_recovery_s,
                    r.log_bytes, r.log_packages, r.replay_verified_packages,
                    r.replay_log_mismatches, r.replay_window_s, r.dropped_packages,
                    r.corrupted_packages, r.retransmissions, r.modeled_fault_overhead_s);
  };
  EXPECT_EQ(fields(a), fields(b));
}

/// Crash point k: a checkpoint every k supersteps and a crash in superstep
/// k, the first one past the checkpoint at boundary k, which the replacement
/// restores, losing nothing, for any k.
class CrashRecovery : public ::testing::TestWithParam<Superstep> {};

void expect_resumes_at_checkpoint(const graph::EdgeList& e, Cell c, Superstep k,
                                  CheckpointMode mode = CheckpointMode::kLightweight) {
  c.fault = Fault{.plan = crash(k), .checkpoint_every = k, .mode = mode};
  EXPECT_EQ(expect_recovers(e, c).lost_supersteps, 0u);
}

TEST_P(CrashRecovery, BspPageRankSurvivesCrash) {
  expect_resumes_at_checkpoint(rmat_2014(),
                             cell(Algo::kPageRank, EngineKind::kHama, 4, 1, 200, pr(1e-11)),
                             GetParam(), CheckpointMode::kHeavyweight);
}

TEST_P(CrashRecovery, CyclopsPageRankSurvivesCrash) {
  expect_resumes_at_checkpoint(rmat_2014(),
                             cell(Algo::kPageRank, EngineKind::kCyclops, 4, 1, 200, pr(1e-11)),
                             GetParam());
}

TEST_P(CrashRecovery, CyclopsSsspSurvivesCrash) {
  expect_resumes_at_checkpoint(road(), cell(Algo::kSssp, EngineKind::kCyclops, 3, 1, 400),
                             GetParam());
}

TEST_P(CrashRecovery, GasPageRankSurvivesCrash) {
  expect_resumes_at_checkpoint(rmat_2014(),
                             cell(Algo::kPageRank, EngineKind::kGas, 4, 1, 200, pr(1e-11)),
                             GetParam());
}

INSTANTIATE_TEST_SUITE_P(CrashPoints, CrashRecovery,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u));

// Heavyweight snapshots (full replica state) restore as exactly as
// lightweight ones; §3.6's point is only that they are bigger.
TEST(Checkpoint, HeavyweightModesRoundTrip) {
  const graph::EdgeList e = graph::gen::rmat(8, 1600, 31);
  Cell c = with_fault(
      cell(Algo::kPageRank, EngineKind::kCyclops, 4, 1, 200, pr(1e-11)),
      {.plan = crash(7), .checkpoint_every = 6, .mode = CheckpointMode::kHeavyweight});
  const std::uint64_t heavy = expect_recovers(e, c).last_checkpoint_bytes;
  c.fault->mode = CheckpointMode::kLightweight;
  EXPECT_LT(expect_recovers(e, c).last_checkpoint_bytes, heavy);
}

// Log-based recovery: the replayed traffic must match the log byte for byte
// and leave the fault-free wire digest.

Fault logged(sim::FaultPlan plan, Superstep every, RecoveryMode recovery = RecoveryMode::kLog,
             CheckpointMode mode = CheckpointMode::kLightweight) {
  return {.plan = plan, .checkpoint_every = every, .mode = mode, .recovery = recovery};
}

TEST(LogRecovery, CyclopsPageRankReplayIsBitFaithful) {
  expect_recovers(rmat_2014(),
                  with_fault(cell(Algo::kPageRank, EngineKind::kCyclops, 4, 1, 200, pr(1e-11)),
                             logged(crash(10, 2), 3)));
}

TEST(LogRecovery, CyclopsSsspParallelReplayIsBitFaithful) {
  expect_recovers(road(), with_fault(cell(Algo::kSssp, EngineKind::kCyclops, 3, 1, 400),
                                     logged(crash(7, 1), 4, RecoveryMode::kLogParallel)));
}

// A lattice has a large diameter, so min-label propagation runs for ~28
// supersteps: room for a mid-run crash with a non-empty window.
TEST(LogRecovery, CyclopsCcReplayIsBitFaithful) {
  expect_recovers(road(), with_fault(cell(Algo::kCc, EngineKind::kCyclops, 4, 1, 100),
                                     logged(crash(7, 3), 3)));
}

// CyclopsMT sends one package per compute thread between each worker pair,
// so 4 threads put 4 same-(from, to) packages in each exchange: per-lane log
// keys keep them apart (MessageLog.LanesWithSameEndpointsAreDistinctEntries).
TEST(LogRecovery, CyclopsMtPageRankReplayIsBitFaithful) {
  Cell c = cell(Algo::kPageRank, EngineKind::kCyclopsMT, 4, 1, 200, pr(1e-11));
  c.shape.mt_threads = 4;
  c.shape.mt_receivers = 2;
  expect_recovers(rmat_2014(), with_fault(c, logged(crash(10, 2), 3)));
}

TEST(LogRecovery, BspPageRankReplayIsBitFaithful) {
  expect_recovers(rmat_2014(),
                  with_fault(cell(Algo::kPageRank, EngineKind::kHama, 4, 1, 200, pr(1e-11)),
                             logged(crash(10, 2), 3, RecoveryMode::kLog,
                                    CheckpointMode::kHeavyweight)));
}

TEST(LogRecovery, BspSsspParallelReplayIsBitFaithful) {
  expect_recovers(road(), with_fault(cell(Algo::kSssp, EngineKind::kHama, 3, 1, 400),
                                     logged(crash(6, 0), 4, RecoveryMode::kLogParallel,
                                            CheckpointMode::kHeavyweight)));
}

TEST(LogRecovery, BspCcReplayIsBitFaithful) {
  expect_recovers(road(), with_fault(cell(Algo::kCc, EngineKind::kHama, 4, 1, 100),
                                     logged(crash(7, 1), 3, RecoveryMode::kLog,
                                            CheckpointMode::kHeavyweight)));
}

TEST(LogRecovery, GasPageRankReplayIsBitFaithful) {
  expect_recovers(rmat_2014(),
                  with_fault(cell(Algo::kPageRank, EngineKind::kGas, 4, 1, 200, pr(1e-11)),
                             logged(crash(10, 2), 4)));
}

TEST(LogRecovery, GasSsspReplayIsBitFaithful) {
  expect_recovers(graph::gen::rmat(8, 1600, 99),
                  with_fault(cell(Algo::kSssp, EngineKind::kGas, 3, 1, 200),
                             logged(crash(3, 1), 2, RecoveryMode::kLogParallel)));
}

TEST(LogRecovery, SpillBackedLogIsBitFaithful) {
  Fault f = logged(crash(10, 1), 3);  // checkpoints at 3, 6, 9: the window [9, 10) replays
  f.spill_log = true;
  expect_recovers(rmat_2014(),
                  with_fault(cell(Algo::kPageRank, EngineKind::kCyclops, 4, 1, 200, pr(1e-11)), f));
}

/// Wraps MemoryCheckpointStore but hands back a bit-flipped sealed frame, so
/// every restore attempt fails its CRC and recovery must fall back to 0.
class CorruptingStore final : public runtime::CheckpointStore {
 public:
  void put(Superstep superstep, std::vector<std::uint8_t> sealed) override {
    inner_.put(superstep, std::move(sealed));
  }
  [[nodiscard]] std::optional<std::pair<Superstep, std::vector<std::uint8_t>>> latest()
      const override {
    auto snapshot = inner_.latest();
    if (snapshot && !snapshot->second.empty()) {
      snapshot->second[snapshot->second.size() / 2] ^= 0x20;
    }
    return snapshot;
  }

 private:
  runtime::MemoryCheckpointStore inner_;
};

TEST(LogRecovery, CorruptCheckpointIsCountedAndReplayedFromScratch) {
  CorruptingStore store;
  Fault f = logged(crash(6, 1), 2);
  f.store = &store;
  const auto r = expect_recovers(
      graph::gen::rmat(7, 600, 5),
      with_fault(cell(Algo::kPageRank, EngineKind::kCyclops, 2, 1, 60, pr(1e-10)), f));
  // The checkpoint at boundary 4 existed but was unusable: counted, and the
  // whole prefix was replayed (verified against the log) instead.
  EXPECT_EQ(r.corrupt_checkpoints, 1u);
  EXPECT_EQ(r.lost_supersteps, 6u);
}

// Double faults: a second machine dies while the first replay window is
// still the digest-suppression frontier, or after it closed.
void expect_survives_double_fault(Superstep first_at, MachineId first, Superstep second_at,
                                  MachineId second) {
  sim::FaultPlan plan = crash(first_at, first);
  plan.crash2_at = second_at;
  plan.crash2_machine = second;
  const auto r = expect_recovers(
      rmat_2014(), with_fault(cell(Algo::kPageRank, EngineKind::kCyclops, 4, 1, 200, pr(1e-11)),
                              logged(plan, 3)));
  EXPECT_EQ(r.faults_detected, 2u);
}

// Machine 2 dies at superstep 10; the replacement resumes from 9 and machine
// 3 dies at the very next barrier — inside the digest window the first
// recovery armed (digest_covered_until must take the max, or the second
// replay would fold the wire digest twice).
TEST(LogRecovery, DoubleFaultDuringReplayStaysBitFaithful) {
  expect_survives_double_fault(10, 2, 10, 3);
}

TEST(LogRecovery, DoubleFaultAfterReplayStaysBitFaithful) {
  expect_survives_double_fault(10, 1, 13, 3);
}

// ---- ingress pins -----------------------------------------------------------

// The ingress path (the multilevel partitioner, core::Layout and GasLayout)
// must come out bit-identical however it is built. Each structure is folded
// into one CRC-32 field by field, never as raw structs: SlotAdj and LocalEdge
// carry padding bytes whose values nothing defines.

class FieldDigest {
 public:
  template <typename T>
    requires std::is_arithmetic_v<T>
  void add(T x) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(&x);
    bytes_.insert(bytes_.end(), p, p + sizeof x);
  }
  void add(const core::SlotAdj& a) {
    add(a.slot);
    add(a.weight);
  }
  void add(const core::ReplicaRef& r) {
    add(r.worker);
    add(r.slot);
  }
  void add(const gas::LocalEdge& e) {
    add(e.src);
    add(e.dst);
    add(e.weight);
  }
  void add(const gas::MirrorRef& m) {
    add(m.worker);
    add(m.copy);
  }
  /// Length-prefixed, so adjacent arrays cannot trade elements.
  template <typename T>
  void add(const std::vector<T>& xs) {
    add(static_cast<std::uint64_t>(xs.size()));
    for (const T& x : xs) add(x);
  }
  [[nodiscard]] std::uint32_t value() const { return crc32(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

std::uint32_t digest(const core::Layout& l) {
  FieldDigest d;
  for (const core::WorkerLayout& w : l.workers) {
    d.add(w.masters);
    d.add(w.replica_globals);
    d.add(w.replica_owner);
    d.add(w.in_offsets);
    d.add(w.in_adj);
    d.add(w.lout_offsets);
    d.add(w.lout_adj);
    d.add(w.rep_offsets);
    d.add(w.rep_targets);
  }
  d.add(l.master_index);
  d.add(l.total_replicas);
  return d.value();
}

std::uint32_t digest(const gas::GasLayout& l) {
  FieldDigest d;
  for (const gas::GasWorkerLayout& w : l.workers) {
    d.add(w.copy_globals);
    d.add(w.is_master);
    d.add(w.edges);
    d.add(w.in_offsets);
    d.add(w.in_edge_ids);
    d.add(w.out_offsets);
    d.add(w.out_edge_ids);
    d.add(w.mirror_offsets);
    d.add(w.mirrors);
    d.add(w.master_of);
  }
  d.add(l.master_ref);
  d.add(l.total_copies);
  return d.value();
}

/// A road lattice with parallel shortcut edges, and an R-MAT graph with
/// hubs and self-loops: both coarsen over several levels at k = 24.
graph::EdgeList pin_road() { return graph::gen::road_grid({48, 48, 0.05}, 11); }
graph::EdgeList pin_rmat() { return graph::gen::rmat(12, 30000, 11); }

struct IngressDigests {
  std::uint32_t owners = 0;  ///< MultilevelPartitioner::partition(g, k).owners()
  std::uint32_t layout = 0;  ///< core::build_layout over those owners
  std::uint32_t gas = 0;     ///< gas::build_gas_layout over GreedyVertexCut
};

IngressDigests ingress_digests(const graph::EdgeList& e, WorkerId k) {
  const auto g = graph::make_store(e);
  const partition::EdgeCutPartition part = partition::MultilevelPartitioner{}.partition(*g, k);
  FieldDigest owners;
  owners.add(part.owners());
  return {owners.value(), digest(core::build_layout(*g, part)),
          digest(gas::build_gas_layout(*g, partition::GreedyVertexCut{}.partition(*g, k)))};
}

/// Digests recorded from the hash-map ingress code; any rewrite must keep them.
void expect_ingress(const graph::EdgeList& e, WorkerId k, const IngressDigests& want) {
  const IngressDigests got = ingress_digests(e, k);
  EXPECT_EQ(got.owners, want.owners) << "multilevel owners, k=" << k;
  EXPECT_EQ(got.layout, want.layout) << "core::Layout, k=" << k;
  EXPECT_EQ(got.gas, want.gas) << "GasLayout, k=" << k;
}

TEST(IngressPin, RoadLatticeSixParts) {
  expect_ingress(pin_road(), 6, {0xa69613bc, 0x74839d0b, 0x0992e55e});
}
TEST(IngressPin, RoadLatticeTwentyFourParts) {
  expect_ingress(pin_road(), 24, {0xdacd37fb, 0x96257aee, 0x6af831dd});
}
TEST(IngressPin, RmatSixParts) {
  expect_ingress(pin_rmat(), 6, {0xea5738f5, 0xb3badb05, 0x367a8c05});
}
TEST(IngressPin, RmatTwentyFourParts) {
  expect_ingress(pin_rmat(), 24, {0x78e9d3fa, 0x2df11b44, 0x9988a397});
}

}  // namespace
}  // namespace cyclops::algo
