// Tests for the Cyclops engine — the paper's contribution. Covers algorithm
// correctness for all four workloads, the engine's core invariants (replica
// consistency, at most one sync message per replica per superstep, dynamic
// computation), CyclopsMT thread configurations, checkpoint/restore (masters
// only), and fine-grained convergence detection.

#include <gtest/gtest.h>

#include <cmath>

#include "cyclops/graph/csr.hpp"
#include "cyclops/algorithms/als.hpp"
#include "cyclops/algorithms/cd.hpp"
#include "cyclops/algorithms/pagerank.hpp"
#include "cyclops/algorithms/sssp.hpp"
#include "cyclops/core/engine.hpp"
#include "cyclops/graph/generators.hpp"
#include "cyclops/partition/multilevel.hpp"
#include "test_util.hpp"

namespace cyclops::core {
namespace {

using algo::AlsCyclops;
using algo::CdCyclops;
using algo::PageRankCyclops;
using algo::SsspCyclops;

double max_abs_diff(std::span<const double> a, std::span<const double> b) {
  double m = 0;
  for (std::size_t i = 0; i < a.size(); ++i) m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

// ---------- PageRank ----------

TEST(CyclopsPageRank, MatchesReferenceOnFigure6) {
  const graph::Csr g = graph::Csr::build(test::figure6_graph());
  PageRankCyclops pr;
  pr.epsilon = 1e-12;
  Config cfg = Config::cyclops(3, 1);
  cfg.max_supersteps = 300;
  Engine<PageRankCyclops> engine(g, test::owners({0, 0, 1, 1, 2, 2}, 3), pr, cfg);
  (void)engine.run();
  EXPECT_LT(max_abs_diff(engine.values(), algo::pagerank_reference(g)), 1e-8);
}

TEST(CyclopsPageRank, MatchesReferenceOnRmat) {
  const graph::Csr g = graph::Csr::build(graph::gen::rmat(9, 3000, 77));
  PageRankCyclops pr;
  pr.epsilon = 1e-12;
  Config cfg = Config::cyclops(2, 2);
  cfg.max_supersteps = 300;
  Engine<PageRankCyclops> engine(g, test::hash_partition(g, 4), pr, cfg);
  (void)engine.run();
  EXPECT_LT(max_abs_diff(engine.values(), algo::pagerank_reference(g)), 1e-8);
}

TEST(CyclopsPageRank, DeterministicAcrossWorkerCounts) {
  const graph::Csr g = graph::Csr::build(graph::gen::rmat(8, 1200, 5));
  auto run_with = [&](MachineId machines, WorkerId wpm) {
    PageRankCyclops pr;
    pr.epsilon = 1e-11;
    Config cfg = Config::cyclops(machines, wpm);
    cfg.max_supersteps = 200;
    Engine<PageRankCyclops> engine(
        g, test::hash_partition(g, machines * wpm), pr, cfg);
    (void)engine.run();
    return engine.values();
  };
  const auto v1 = run_with(1, 1);
  const auto v6 = run_with(3, 2);
  const auto v8 = run_with(8, 1);
  EXPECT_LT(max_abs_diff(v1, v6), 1e-9);
  EXPECT_LT(max_abs_diff(v1, v8), 1e-9);
}

TEST(CyclopsPageRank, MtThreadsDoNotChangeResults) {
  const graph::Csr g = graph::Csr::build(graph::gen::rmat(9, 2500, 7));
  auto run_mt = [&](unsigned threads, unsigned receivers) {
    PageRankCyclops pr;
    pr.epsilon = 1e-11;
    Config cfg = Config::cyclops_mt(4, threads, receivers);
    cfg.max_supersteps = 200;
    Engine<PageRankCyclops> engine(g, test::hash_partition(g, 4), pr, cfg);
    (void)engine.run();
    return engine.values();
  };
  const auto v11 = run_mt(1, 1);
  const auto v42 = run_mt(4, 2);
  const auto v88 = run_mt(8, 8);
  EXPECT_LT(max_abs_diff(v11, v42), 1e-12);
  EXPECT_LT(max_abs_diff(v11, v88), 1e-12);
}

TEST(CyclopsPageRank, DynamicComputationShrinksActiveSet) {
  // Fig 10(2): unlike BSP, the Cyclops active set decays as vertices
  // converge.
  const graph::Csr g = graph::Csr::build(graph::gen::rmat(10, 6000, 3));
  PageRankCyclops pr;
  pr.epsilon = 1e-9;
  Config cfg = Config::cyclops(4, 1);
  cfg.max_supersteps = 60;
  Engine<PageRankCyclops> engine(g, test::hash_partition(g, 4), pr, cfg);
  const auto stats = engine.run();
  ASSERT_GT(stats.supersteps.size(), 6u);
  const auto& first = stats.supersteps.front();
  const auto& late = stats.supersteps[stats.supersteps.size() - 2];
  EXPECT_LT(late.active_vertices, (first.active_vertices * 7) / 10);
  // ... and by termination every vertex is quiescent.
  EXPECT_EQ(stats.supersteps.back().converged_vertices, g.num_vertices());
  EXPECT_GT(stats.supersteps.back().converged_vertices,
            stats.supersteps.front().converged_vertices);
}

// ---------- Engine invariants ----------

TEST(CyclopsInvariants, AtMostOneMessagePerReplicaPerSuperstep) {
  // §3.4: "each replica only receiving at most one message".
  const graph::Csr g = graph::Csr::build(graph::gen::rmat(9, 3000, 11));
  PageRankCyclops pr;
  pr.epsilon = 1e-9;
  Config cfg = Config::cyclops(6, 1);
  cfg.max_supersteps = 50;
  Engine<PageRankCyclops> engine(g, test::hash_partition(g, 6), pr, cfg);
  const auto stats = engine.run();
  for (const auto& s : stats.supersteps) {
    EXPECT_LE(s.net.total_messages(), engine.layout().total_replicas);
  }
}

TEST(CyclopsInvariants, ReplicasConsistentWithMastersAfterRun) {
  const graph::Csr g = graph::Csr::build(graph::gen::rmat(8, 1500, 13));
  PageRankCyclops pr;
  pr.epsilon = 1e-10;
  Config cfg = Config::cyclops(4, 1);
  cfg.max_supersteps = 100;
  Engine<PageRankCyclops> engine(g, test::hash_partition(g, 4), pr, cfg);
  (void)engine.run();
  EXPECT_TRUE(engine.replicas_consistent());
}

TEST(CyclopsInvariants, ReplicasConsistentAtEverySuperstep) {
  const graph::Csr g = graph::Csr::build(graph::gen::rmat(8, 1500, 14));
  PageRankCyclops pr;
  pr.epsilon = 1e-9;
  Config cfg = Config::cyclops(5, 1);
  cfg.max_supersteps = 30;
  Engine<PageRankCyclops> engine(g, test::hash_partition(g, 5), pr, cfg);
  bool all_consistent = true;
  engine.set_observer([&](const metrics::SuperstepStats&, const Engine<PageRankCyclops>& e) {
    all_consistent = all_consistent && e.replicas_consistent();
  });
  (void)engine.run();
  EXPECT_TRUE(all_consistent);
}

TEST(CyclopsInvariants, NoMessagesWithSinglePartition) {
  const graph::Csr g = graph::Csr::build(graph::gen::rmat(8, 1200, 17));
  PageRankCyclops pr;
  Config cfg = Config::cyclops(1, 1);
  cfg.max_supersteps = 30;
  Engine<PageRankCyclops> engine(g, test::hash_partition(g, 1), pr, cfg);
  const auto stats = engine.run();
  EXPECT_EQ(stats.net_totals().total_messages(), 0u);
  EXPECT_EQ(engine.layout().total_replicas, 0u);
}

TEST(CyclopsInvariants, MessagesScaleWithReplicasNotEdges) {
  // A better partition (fewer replicas) must send fewer messages — the
  // mechanism behind Figure 11(3).
  graph::gen::CommunitySpec spec{12, 60, 8, 0.95};
  const graph::Csr g = graph::Csr::build(graph::gen::planted_communities(spec, 19));
  auto run_messages = [&](const partition::EdgeCutPartition& part) {
    PageRankCyclops pr;
    pr.epsilon = 1e-9;
    Config cfg = Config::cyclops(4, 1);
    cfg.max_supersteps = 25;
    Engine<PageRankCyclops> engine(g, part, pr, cfg);
    const auto stats = engine.run();
    return std::make_pair(stats.net_totals().total_messages(),
                          engine.layout().total_replicas);
  };
  const auto [hash_msgs, hash_reps] = run_messages(test::hash_partition(g, 4));
  const auto [ml_msgs, ml_reps] =
      run_messages(partition::MultilevelPartitioner{}.partition(g, 4));
  EXPECT_LT(ml_reps, hash_reps);
  EXPECT_LT(ml_msgs, hash_msgs);
}

TEST(CyclopsInvariants, NoParsePhase) {
  const graph::Csr g = graph::Csr::build(graph::gen::rmat(8, 1500, 23));
  PageRankCyclops pr;
  Config cfg = Config::cyclops(4, 1);
  cfg.max_supersteps = 20;
  Engine<PageRankCyclops> engine(g, test::hash_partition(g, 4), pr, cfg);
  const auto stats = engine.run();
  EXPECT_DOUBLE_EQ(stats.phase_totals().prs_s, 0.0);
}

// ---------- SSSP ----------

TEST(CyclopsSssp, MatchesDijkstraOnDiamond) {
  const graph::Csr g = graph::Csr::build(test::diamond_graph());
  SsspCyclops sssp;
  sssp.source = 0;
  Engine<SsspCyclops> engine(g, test::hash_partition(g, 2), sssp, Config::cyclops(2, 1));
  (void)engine.run();
  const auto reference = algo::sssp_reference(g, 0);
  for (VertexId v = 0; v < 4; ++v) EXPECT_DOUBLE_EQ(engine.values()[v], reference[v]);
}

TEST(CyclopsSssp, MatchesDijkstraOnRoadGrid) {
  graph::gen::RoadSpec spec;
  spec.rows = 15;
  spec.cols = 15;
  const graph::Csr g = graph::Csr::build(graph::gen::road_grid(spec, 7));
  SsspCyclops sssp;
  sssp.source = 0;
  Config cfg = Config::cyclops(3, 2);
  cfg.max_supersteps = 500;
  Engine<SsspCyclops> engine(g, test::hash_partition(g, 6), sssp, cfg);
  (void)engine.run();
  const auto reference = algo::sssp_reference(g, 0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_NEAR(engine.values()[v], reference[v], 1e-9) << "vertex " << v;
  }
}

TEST(CyclopsSssp, PushModeTouchesOnlyFrontier) {
  graph::gen::RoadSpec spec;
  spec.rows = 12;
  spec.cols = 12;
  spec.shortcut_fraction = 0.0;
  const graph::Csr g = graph::Csr::build(graph::gen::road_grid(spec, 9));
  SsspCyclops sssp;
  sssp.source = 0;
  Config cfg = Config::cyclops(2, 1);
  cfg.max_supersteps = 300;
  Engine<SsspCyclops> engine(g, test::hash_partition(g, 2), sssp, cfg);
  const auto stats = engine.run();
  EXPECT_EQ(stats.supersteps.front().active_vertices, 1u);  // just the source
  for (const auto& s : stats.supersteps) {
    EXPECT_LT(s.active_vertices, g.num_vertices());
  }
}

TEST(CyclopsSssp, ForceAllActiveMtMatchesTheFrontierWalk) {
  // CyclopsMT chunks of ~37 masters split bitset words, so the dynamic run's
  // range walks start and end mid-word; the ablation's plain loop visits
  // every master. Both reach the same distances; the forced run is one
  // superstep ahead, because in superstep 0 the source's out-neighbors
  // already read its initial distance 0 instead of waiting to be activated.
  graph::gen::RoadSpec spec;
  spec.rows = 15;
  spec.cols = 15;
  const graph::Csr g = graph::Csr::build(graph::gen::road_grid(spec, 7));
  auto run_with = [&](bool force) {
    Config cfg = Config::cyclops_mt(2, 3, 2);
    cfg.max_supersteps = 500;
    cfg.force_all_active = force;
    Engine<SsspCyclops> engine(g, test::hash_partition(g, 2), SsspCyclops{.source = 0}, cfg);
    const auto stats = engine.run();
    std::uint64_t computed = 0;
    for (const auto& s : stats.supersteps) {
      if (force) {
        EXPECT_EQ(s.computed_vertices, g.num_vertices());
      }
      computed += s.computed_vertices;
    }
    return std::make_tuple(engine.values(), stats.supersteps.size(), computed);
  };
  const auto [forced, forced_steps, forced_computed] = run_with(true);
  const auto [dynamic, dynamic_steps, dynamic_computed] = run_with(false);
  EXPECT_EQ(forced, algo::sssp_reference(g, 0));
  EXPECT_EQ(dynamic, forced);
  EXPECT_EQ(dynamic_steps, forced_steps + 1);
  EXPECT_LT(dynamic_computed, forced_computed / 4);
}

// ---------- Community Detection ----------

TEST(CyclopsCd, MatchesSequentialReference) {
  graph::gen::CommunitySpec spec{8, 40, 7, 0.92};
  const graph::Csr g = graph::Csr::build(graph::gen::planted_communities(spec, 29));
  CdCyclops cd;
  Config cfg = Config::cyclops(4, 1);
  cfg.max_supersteps = 40;
  Engine<CdCyclops> engine(g, test::hash_partition(g, 4), cd, cfg);
  const auto stats = engine.run();
  // Engine stopped because no vertex changed; the reference run with the
  // same number of rounds must agree exactly.
  const auto reference = algo::cd_reference(g, static_cast<unsigned>(stats.supersteps.size()));
  const auto labels = engine.values();
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(labels[v], reference[v]) << "vertex " << v;
  }
}

TEST(CyclopsCd, FindsPlantedCommunities) {
  graph::gen::CommunitySpec spec{6, 50, 8, 0.95};
  const graph::Csr g = graph::Csr::build(graph::gen::planted_communities(spec, 31));
  CdCyclops cd;
  Config cfg = Config::cyclops(3, 1);
  cfg.max_supersteps = 30;
  Engine<CdCyclops> engine(g, test::hash_partition(g, 3), cd, cfg);
  (void)engine.run();
  const auto labels = engine.values();
  EXPECT_GT(algo::label_agreement(g, labels), 0.7);
}

// ---------- ALS ----------

TEST(CyclopsAls, MatchesSequentialReference) {
  graph::gen::BipartiteSpec spec{120, 40, 6};
  const graph::Csr g = graph::Csr::build(graph::gen::bipartite_ratings(spec, 37));
  AlsCyclops als;
  als.num_users = spec.users;
  als.rounds = 6;
  Config cfg = Config::cyclops(3, 1);
  cfg.max_supersteps = 10;
  Engine<AlsCyclops> engine(g, test::hash_partition(g, 3), als, cfg);
  (void)engine.run();
  const auto reference = algo::als_reference(g, spec.users, 6, als.lambda);
  const auto factors = engine.values();
  double max_diff = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (std::size_t k = 0; k < algo::kAlsRank; ++k) {
      max_diff = std::max(max_diff, std::abs(factors[v][k] - reference[v][k]));
    }
  }
  EXPECT_LT(max_diff, 1e-8);
}

TEST(CyclopsAls, RmseDecreasesOverTraining) {
  graph::gen::BipartiteSpec spec{200, 60, 8};
  const graph::Csr g = graph::Csr::build(graph::gen::bipartite_ratings(spec, 41));
  std::vector<algo::Factor> init(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) init[v] = algo::als_init_factor(v);
  const double rmse0 = algo::als_rmse(g, spec.users, init);

  AlsCyclops als;
  als.num_users = spec.users;
  als.rounds = 8;
  Config cfg = Config::cyclops(2, 2);
  cfg.max_supersteps = 12;
  Engine<AlsCyclops> engine(g, test::hash_partition(g, 4), als, cfg);
  (void)engine.run();
  const auto factors = engine.values();
  const double rmse = algo::als_rmse(g, spec.users, factors);
  EXPECT_LT(rmse, 0.5 * rmse0);
}

// ---------- Checkpoint / restore ----------

TEST(CyclopsEngine, CheckpointRestoreResumesExactly) {
  const graph::Csr g = graph::Csr::build(graph::gen::rmat(8, 1500, 43));
  const auto part = test::hash_partition(g, 3);
  PageRankCyclops pr;
  pr.epsilon = 1e-11;
  Config cfg = Config::cyclops(3, 1);
  cfg.max_supersteps = 200;

  Engine<PageRankCyclops> full(g, part, pr, cfg);
  (void)full.run();

  Config cfg8 = cfg;
  cfg8.max_supersteps = 8;
  Engine<PageRankCyclops> first(g, part, pr, cfg8);
  (void)first.run();
  ByteWriter snapshot;
  first.checkpoint(snapshot);

  Engine<PageRankCyclops> resumed(g, part, pr, cfg);
  ByteReader reader(snapshot.bytes());
  resumed.restore(reader);
  EXPECT_EQ(resumed.superstep(), 8u);
  (void)resumed.run();
  EXPECT_LT(max_abs_diff(resumed.values(), full.values()), 1e-12);
}

TEST(CyclopsEngine, CheckpointOmitsReplicasAndMessages) {
  // §3.6: Cyclops checkpoints are masters-only — strictly smaller state than
  // an equivalent BSP checkpoint that also saves in-flight messages.
  const graph::Csr g = graph::Csr::build(graph::gen::rmat(9, 4000, 47));
  PageRankCyclops pr;
  Config cfg = Config::cyclops(4, 1);
  cfg.max_supersteps = 5;
  Engine<PageRankCyclops> engine(g, test::hash_partition(g, 4), pr, cfg);
  (void)engine.run();
  ByteWriter snap;
  engine.checkpoint(snap);
  // Upper bound: values + shared + flags + per-worker vector headers.
  const std::size_t upper =
      g.num_vertices() * (sizeof(double) * 2 + 1) + 16 * 8 * 4 + 64;
  EXPECT_LT(snap.size(), upper);
}

// ---------- Fine-grained convergence detection (§4.4) ----------

TEST(CyclopsEngine, StopsAtConvergedFraction) {
  const graph::Csr g = graph::Csr::build(graph::gen::rmat(10, 6000, 53));
  auto run_until = [&](double fraction) {
    PageRankCyclops pr;
    pr.epsilon = 1e-10;
    Config cfg = Config::cyclops(4, 1);
    cfg.max_supersteps = 200;
    cfg.stop_converged_fraction = fraction;
    Engine<PageRankCyclops> engine(g, test::hash_partition(g, 4), pr, cfg);
    const auto stats = engine.run();
    return std::make_pair(stats.supersteps.size(),
                          static_cast<double>(stats.supersteps.back().converged_vertices) /
                              g.num_vertices());
  };
  const auto [steps90, frac90] = run_until(0.90);
  const auto [steps_full, frac_full] = run_until(1.0);
  EXPECT_LT(steps90, steps_full);
  EXPECT_GE(frac90, 0.90);
  EXPECT_GT(frac_full, frac90);
}

// ---------- CyclopsMT configuration sweep ----------

struct MtCase {
  unsigned threads;
  unsigned receivers;
};

class CyclopsMtSweep : public ::testing::TestWithParam<MtCase> {};

TEST_P(CyclopsMtSweep, AllConfigsProduceCorrectPageRank) {
  const auto [threads, receivers] = GetParam();
  const graph::Csr g = graph::Csr::build(graph::gen::rmat(8, 2000, 59));
  algo::PageRankCyclops pr;
  pr.epsilon = 1e-11;
  Config cfg = Config::cyclops_mt(3, threads, receivers);
  cfg.max_supersteps = 200;
  cfg.pool_threads = 2;  // really run chunks on two host threads
  Engine<algo::PageRankCyclops> engine(g, test::hash_partition(g, 3), pr, cfg);
  (void)engine.run();
  EXPECT_LT(max_abs_diff(engine.values(), algo::pagerank_reference(g)), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Configs, CyclopsMtSweep,
                         ::testing::Values(MtCase{1, 1}, MtCase{2, 1}, MtCase{4, 2},
                                           MtCase{8, 2}, MtCase{8, 8}));

// ---------- Memory report ----------

TEST(CyclopsEngine, MemoryReportAccountsReplicas) {
  const graph::Csr g = graph::Csr::build(graph::gen::rmat(9, 3000, 61));
  PageRankCyclops pr;
  Config cfg = Config::cyclops(6, 1);
  cfg.max_supersteps = 10;
  Engine<PageRankCyclops> engine(g, test::hash_partition(g, 6), pr, cfg);
  (void)engine.run();
  const auto report = engine.memory_report();
  EXPECT_EQ(report.replica_bytes, engine.layout().total_replicas * sizeof(double));
  EXPECT_GT(report.vertex_state_bytes, 0u);
  EXPECT_GT(report.message_churn_bytes, 0u);
  EXPECT_GE(report.peak_bytes(), report.resident_bytes());
}

}  // namespace
}  // namespace cyclops::core
