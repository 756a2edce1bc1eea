// The differential harness: one cell runner over the job catalog. A cell is
// an (algorithm, engine) pair from algo::with_job plus the axes that must not
// change its result — the graph store, the host thread count, the schedule —
// and the knobs that legitimately shape its run (cluster shape, partitioner,
// combiner, the force-all-active ablation). Every cell's values are checked
// against the sequential reference, and every cell's values and wire digest
// are checked bit for bit against the memory-store, one-thread,
// native-schedule cell.
//
// Two kinds of tests use it: the graph-zoo sweep (every supported pair on
// every adversarial entry, every store, 1/2/4 threads and several schedules)
// and the named cases that predate the harness, each a harness call on its
// original graph, shape, partitioner, cap and tolerance.

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
#include <type_traits>
#include <utility>
#include <vector>

#include "cyclops/algorithms/catalog.hpp"
#include "cyclops/graph/csr.hpp"
#include "cyclops/graph/delta_overlay.hpp"
#include "cyclops/graph/generators.hpp"
#include "cyclops/partition/partition.hpp"
#include "cyclops/partition/vertex_cut.hpp"
#include "cyclops/sim/sched.hpp"
#include "catalog_job.hpp"
#include "test_util.hpp"

namespace cyclops::algo {
namespace {

using graph::StoreKind;

// ---- the cell runner --------------------------------------------------------

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
};

/// What a run produced: values flattened to doubles (padding-free), the
/// fabric's wire digest, the superstep count and the modeled run time.
struct Outcome {
  std::vector<double> values;
  std::uint64_t wire = 0;
  std::size_t supersteps = 0;
  double modeled_s = 0;
  bool replicas_consistent = true;  ///< core engines: replicas equal their masters
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

template <typename Engine>
Outcome run(Engine& engine) {
  const metrics::RunStats stats = engine.run();
  Outcome o;
  for (const auto& v : engine.values()) flatten(v, o.values);
  o.wire = engine.fabric().wire_digest();
  o.supersteps = stats.supersteps.size();
  o.modeled_s = stats.total_time_s();
  if constexpr (requires { engine.replicas_consistent(); }) {
    o.replicas_consistent = engine.replicas_consistent();
  }
  return o;
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
/// schedule and Config tweaks set on the Config with_job returns.
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
        if constexpr (kVertexCut<Engine>) {
          Engine engine(g,
                        c.greedy_cut ? partition::GreedyVertexCut{}.partition(g, parts)
                                     : partition::RandomVertexCut{}.partition(g, parts),
                        prog, cfg);
          return run(engine);
        } else {
          Engine engine(g, partition::make_edge_cut_partitioner(c.edge_cut)->partition(g, parts),
                        prog, cfg);
          return run(engine);
        }
      });
}

std::string describe(const Cell& c) {
  std::string s = std::string(token(c.engine)) + "/" + token(c.algo) + " store=" +
                  std::string(graph::store_kind_name(c.store)) +
                  " threads=" + std::to_string(c.pool_threads);
  return s + " seed=" + (c.seed ? std::to_string(*c.seed) : "native");
}

// ---- checks -----------------------------------------------------------------

/// How far a cell may sit from the sequential reference. SSSP, CC and CD are
/// exact: min-plus relaxation and label votes reach the same doubles and
/// labels in any order. PageRank stops once no rank moves by more than
/// ε = 1e-12 per superstep, which leaves it within 1e-8 of the reference's
/// fixpoint. ALS sums each neighborhood in the engine's delivery order, not
/// the reference's in-edge order, so rounding differs: 1e-7.
double tolerance(Algo a) {
  if (a == Algo::kPageRank) return 1e-8;
  if (a == Algo::kAls) return 1e-7;
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
      return pagerank_reference(g);
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
  expect_near(o.values, reference(g, c, o.supersteps), g.num_vertices(), tolerance(c.algo),
              describe(c) + " vs reference");
}

/// Values compared as bytes: a reordered accumulation passes EXPECT_NEAR but
/// not this.
void expect_identical(const Outcome& want, const Outcome& got, const std::string& what) {
  EXPECT_EQ(got.wire, want.wire) << "wire digest diverged: " << what;
  EXPECT_EQ(got.supersteps, want.supersteps) << what;
  ASSERT_EQ(got.values.size(), want.values.size()) << what;
  EXPECT_EQ(0, std::memcmp(got.values.data(), want.values.data(),
                           want.values.size() * sizeof(double)))
      << "values diverged: " << what;
}

/// The digest of a fabric that never delivered a package (FNV-1a's basis).
constexpr std::uint64_t kEmptyWire = 0xcbf29ce484222325ULL;

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
  const Outcome bsp = run_cell(stores, c);
  const VertexId n = stores[StoreKind::kMemory].num_vertices();
  const double tol = tolerance(Algo::kPageRank);
  c.engine = EngineKind::kCyclops;
  expect_near(run_cell(stores, c).values, bsp.values, n, tol, "cyclops vs bsp");
  c.engine = EngineKind::kGas;
  c.greedy_cut = true;
  expect_near(run_cell(stores, c).values, bsp.values, n, tol, "gas vs bsp");
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

}  // namespace
}  // namespace cyclops::algo
