// Tests for the job catalog (algorithms/catalog.hpp): its token vocabulary,
// its support matrix, and its wiring. The wiring test builds every supported
// (algorithm, engine) pair twice — once by hand, with the program and Config
// the CLI and the service runner used to construct themselves, and once
// through with_job — and requires identical values, wire digests and modeled
// time.

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "cyclops/algorithms/catalog.hpp"
#include "cyclops/graph/generators.hpp"
#include "cyclops/partition/vertex_cut.hpp"
#include "test_util.hpp"

namespace cyclops::algo {
namespace {

constexpr MachineId kMachines = 2;
constexpr WorkerId kPerMachine = 2;
constexpr unsigned kThreads = 3;
constexpr unsigned kReceivers = 2;
constexpr Superstep kCap = 30;
constexpr double kEpsilon = 1e-9;
constexpr VertexId kSource = 1;
constexpr VertexId kUsers = 48;
constexpr unsigned kRounds = 4;

constexpr JobParams kParams{
    .epsilon = kEpsilon, .source = kSource, .num_users = kUsers, .rounds = kRounds};
constexpr ClusterShape kShape{.machines = kMachines,
                              .workers_per_machine = kPerMachine,
                              .mt_threads = kThreads,
                              .mt_receivers = kReceivers,
                              .max_supersteps = kCap};

/// A bipartite ratings graph: every algorithm in the catalog can run on it.
graph::Csr test_graph() {
  graph::gen::BipartiteSpec spec;
  spec.users = kUsers;
  spec.items = 16;
  spec.ratings_per_user = 4;
  return graph::Csr::build(graph::gen::bipartite_ratings(spec, 7));
}

bool gas_has_no_program(Algo a) {
  return a == Algo::kCd || a == Algo::kCc || a == Algo::kAls;
}

// ---- vocabulary -------------------------------------------------------------

TEST(Catalog, EveryTokenParsesAndPrintsBack) {
  for (const Algo a : kAlgos) {
    EXPECT_EQ(parse_algo(token(a)), a) << token(a);
    EXPECT_STRNE(label(a), "");
  }
  for (const EngineKind e : kEngines) {
    EXPECT_EQ(parse_engine(token(e)), e) << token(e);
    EXPECT_STRNE(label(e), "");
  }
  EXPECT_STREQ(token(EngineKind::kCyclopsMT), "mt");
  EXPECT_STREQ(label(EngineKind::kGas), "PowerGraph");
  EXPECT_STREQ(label(Algo::kPageRank), "PageRank");
}

TEST(Catalog, UnknownTokensAreRejected) {
  for (const char* tok : {"", "bogus", "PR", "pagerank", "pr ", "cyclops"}) {
    EXPECT_FALSE(parse_algo(tok).has_value()) << '"' << tok << '"';
  }
  for (const char* tok : {"", "bogus", "powergraph", "cyclops-mt", "Hama", "pr"}) {
    EXPECT_FALSE(parse_engine(tok).has_value()) << '"' << tok << '"';
  }
}

// ---- support matrix ---------------------------------------------------------

TEST(Catalog, ExactlyGasWithoutAProgramIsUnsupported) {
  const graph::Csr g = test_graph();
  int supported = 0;
  for (const Algo a : kAlgos) {
    for (const EngineKind e : kEngines) {
      const std::string why = unsupported(a, e, g, kParams);
      if (e == EngineKind::kGas && gas_has_no_program(a)) {
        EXPECT_NE(why.find(token(e)), std::string::npos) << why;
        EXPECT_NE(why.find(token(a)), std::string::npos) << why;
      } else {
        EXPECT_EQ(why, "") << token(e) << "/" << token(a);
        ++supported;
      }
    }
  }
  EXPECT_EQ(supported, 17);
}

TEST(Catalog, OutOfRangeParametersAreRejected) {
  const graph::Csr g = test_graph();
  const VertexId n = g.num_vertices();
  for (const EngineKind e : kEngines) {
    JobParams p = kParams;
    p.source = n;
    EXPECT_NE(unsupported(Algo::kSssp, e, g, p), "") << token(e);
    EXPECT_EQ(unsupported(Algo::kPageRank, e, g, p), "") << "only sssp reads the source";
    p.source = n - 1;
    EXPECT_EQ(unsupported(Algo::kSssp, e, g, p), "") << token(e);
  }
  for (const EngineKind e : {EngineKind::kHama, EngineKind::kCyclops, EngineKind::kCyclopsMT}) {
    for (const VertexId users : {VertexId{0}, n, n + 1}) {
      JobParams p = kParams;
      p.num_users = users;
      EXPECT_NE(unsupported(Algo::kAls, e, g, p), "") << token(e) << " users=" << users;
    }
    JobParams p = kParams;
    p.num_users = n - 1;
    EXPECT_EQ(unsupported(Algo::kAls, e, g, p), "") << token(e);
  }
}

// ---- wiring -----------------------------------------------------------------

/// What a run produced: values flattened to doubles (padding-free), the
/// fabric's wire digest, the superstep count and the modeled run time.
struct Outcome {
  std::vector<double> values;
  std::uint64_t wire = 0;
  std::size_t supersteps = 0;
  double modeled_s = 0;
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
  return o;
}

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

Outcome via_catalog(const graph::Csr& g, Algo a, EngineKind e) {
  return with_job(
      g, a, e, kParams, kShape,
      [&]<typename Engine>(std::type_identity<Engine>, const auto& prog, const auto& cfg) {
        const WorkerId parts = cfg.topo.total_workers();
        if constexpr (kVertexCut<Engine>) {
          Engine engine(g, partition::RandomVertexCut{}.partition(g, parts), prog, cfg);
          return run(engine);
        } else {
          Engine engine(g, test::hash_partition(g, parts), prog, cfg);
          return run(engine);
        }
      });
}

struct HandBuilt {
  Algo algo;
  EngineKind engine;
  std::function<Outcome(const graph::Csr&)> run;
};

std::vector<HandBuilt> hand_built() {
  const PageRankBsp pr_bsp{.epsilon = kEpsilon};
  const PageRankCyclops pr_cy{.epsilon = kEpsilon};
  const SsspBsp sssp_bsp{.source = kSource};
  const SsspCyclops sssp_cy{.source = kSource};
  const AlsBsp als_bsp{.num_users = kUsers, .rounds = kRounds};
  const AlsCyclops als_cy{.num_users = kUsers, .rounds = kRounds};
  using A = Algo;
  using E = EngineKind;
  return {
      {A::kPageRank, E::kHama, [=](const auto& g) { return by_hand_hama(g, pr_bsp); }},
      {A::kPageRank, E::kCyclops, [=](const auto& g) { return by_hand_cyclops(g, pr_cy, false); }},
      {A::kPageRank, E::kCyclopsMT, [=](const auto& g) { return by_hand_cyclops(g, pr_cy, true); }},
      {A::kPageRank, E::kGas,
       [](const auto& g) {
         return by_hand_gas(g, PageRankGas{.num_vertices = g.num_vertices(), .epsilon = kEpsilon});
       }},
      {A::kSssp, E::kHama, [=](const auto& g) { return by_hand_hama(g, sssp_bsp); }},
      {A::kSssp, E::kCyclops, [=](const auto& g) { return by_hand_cyclops(g, sssp_cy, false); }},
      {A::kSssp, E::kCyclopsMT, [=](const auto& g) { return by_hand_cyclops(g, sssp_cy, true); }},
      {A::kSssp, E::kGas, [](const auto& g) { return by_hand_gas(g, SsspGas{.source = kSource}); }},
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
  const graph::Csr g = test_graph();
  const std::vector<HandBuilt> cases = hand_built();
  ASSERT_EQ(cases.size(), 17u);
  for (const HandBuilt& c : cases) {
    const std::string pair = std::string(token(c.engine)) + "/" + token(c.algo);
    ASSERT_EQ(unsupported(c.algo, c.engine, g, kParams), "") << pair;
    const Outcome want = c.run(g);
    const Outcome got = via_catalog(g, c.algo, c.engine);
    ASSERT_FALSE(want.values.empty()) << pair;
    EXPECT_EQ(got.values, want.values) << pair;
    EXPECT_EQ(got.wire, want.wire) << pair;
    EXPECT_EQ(got.supersteps, want.supersteps) << pair;
    EXPECT_EQ(got.modeled_s, want.modeled_s) << pair;
  }
}

}  // namespace
}  // namespace cyclops::algo
