// Tests for the Hama-style BSP engine: algorithm correctness against
// sequential references, Pregel semantics (vote-to-halt, message-driven
// reactivation), combiner equivalence, determinism across worker counts,
// checkpoint/restore, and the Hama-specific instrumentation (global-queue
// locking, message churn).

#include <gtest/gtest.h>

#include <cmath>

#include "cyclops/graph/csr.hpp"
#include "cyclops/algorithms/pagerank.hpp"
#include "cyclops/algorithms/sssp.hpp"
#include "cyclops/bsp/engine.hpp"
#include "cyclops/graph/generators.hpp"
#include "test_util.hpp"

namespace cyclops::bsp {
namespace {

using algo::PageRankBsp;
using algo::SsspBsp;

double max_abs_diff(std::span<const double> a, std::span<const double> b) {
  double m = 0;
  for (std::size_t i = 0; i < a.size(); ++i) m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

TEST(BspPageRank, MatchesReferenceOnFigure6) {
  const graph::Csr g = graph::Csr::build(test::figure6_graph());
  const auto part = test::owners({0, 0, 1, 1, 2, 2}, 3);
  PageRankBsp pr;
  pr.epsilon = 1e-12;
  Config cfg = Config::workers(3);
  cfg.max_supersteps = 300;
  Engine<PageRankBsp> engine(g, part, pr, cfg);
  const auto stats = engine.run();
  const auto reference = algo::pagerank_reference(g);
  EXPECT_LT(max_abs_diff(engine.values(), reference), 1e-8);
  EXPECT_GT(stats.supersteps.size(), 5u);
}

TEST(BspPageRank, MatchesReferenceOnRmat) {
  const graph::Csr g = graph::Csr::build(graph::gen::rmat(9, 3000, 77));
  const auto part = test::hash_partition(g, 4);
  PageRankBsp pr;
  pr.epsilon = 1e-12;
  Config cfg = Config::workers(4);
  cfg.max_supersteps = 300;
  Engine<PageRankBsp> engine(g, part, pr, cfg);
  (void)engine.run();
  EXPECT_LT(max_abs_diff(engine.values(), algo::pagerank_reference(g)), 1e-8);
}

TEST(BspPageRank, RanksSumToRoughlyOneWithoutDanglingLeak) {
  // On a graph with no dangling vertices, total rank is conserved at 1.
  graph::EdgeList e(4);
  e.add(0, 1);
  e.add(1, 2);
  e.add(2, 3);
  e.add(3, 0);
  const graph::Csr g = graph::Csr::build(e);
  PageRankBsp pr;
  pr.epsilon = 1e-13;
  Config cfg = Config::workers(2);
  cfg.max_supersteps = 400;
  Engine<PageRankBsp> engine(g, test::hash_partition(g, 2), pr, cfg);
  (void)engine.run();
  double sum = 0;
  for (double v : engine.values()) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-6);
}

TEST(BspPageRank, DeterministicAcrossWorkerCounts) {
  const graph::Csr g = graph::Csr::build(graph::gen::rmat(8, 1200, 5));
  auto run_with = [&](WorkerId workers) {
    PageRankBsp pr;
    pr.epsilon = 1e-11;
    Config cfg = Config::workers(workers);
    cfg.max_supersteps = 200;
    Engine<PageRankBsp> engine(g, test::hash_partition(g, workers), pr, cfg);
    (void)engine.run();
    return std::vector<double>(engine.values().begin(), engine.values().end());
  };
  const auto v1 = run_with(1);
  const auto v4 = run_with(4);
  const auto v9 = run_with(9);
  // Message arrival order differs, but FP sums are over the same sets in
  // deterministic parse order; results agree to tight tolerance.
  EXPECT_LT(max_abs_diff(v1, v4), 1e-9);
  EXPECT_LT(max_abs_diff(v1, v9), 1e-9);
}

TEST(BspPageRank, CombinerPreservesResultAndCutsMessages) {
  const graph::Csr g = graph::Csr::build(graph::gen::rmat(9, 4000, 13));
  const auto part = test::hash_partition(g, 4);
  auto run = [&](bool combine) {
    PageRankBsp pr;
    pr.epsilon = 1e-10;
    Config cfg = Config::workers(4);
    cfg.use_combiner = combine;
    cfg.max_supersteps = 150;
    Engine<PageRankBsp> engine(g, part, pr, cfg);
    const auto stats = engine.run();
    return std::make_pair(
        std::vector<double>(engine.values().begin(), engine.values().end()),
        stats.net_totals().total_messages());
  };
  const auto [plain_values, plain_msgs] = run(false);
  const auto [combined_values, combined_msgs] = run(true);
  EXPECT_LT(max_abs_diff(plain_values, combined_values), 1e-9);
  EXPECT_LT(combined_msgs, plain_msgs);
}

TEST(BspPageRank, AllVerticesStayAliveUntilGlobalConvergence) {
  // §2.2.1: the BSP push model keeps every vertex computing while the global
  // error is above epsilon — the inefficiency Cyclops removes.
  const graph::Csr g = graph::Csr::build(graph::gen::rmat(8, 1500, 3));
  PageRankBsp pr;
  pr.epsilon = 1e-9;
  Config cfg = Config::workers(2);
  cfg.max_supersteps = 100;
  Engine<PageRankBsp> engine(g, test::hash_partition(g, 2), pr, cfg);
  const auto stats = engine.run();
  std::size_t live_with_edges = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) live_with_edges += g.in_degree(v) > 0;
  for (std::size_t s = 1; s + 2 < stats.supersteps.size(); ++s) {
    EXPECT_GE(stats.supersteps[s].active_vertices, live_with_edges);
  }
}

TEST(BspSssp, MatchesDijkstraOnDiamond) {
  const graph::Csr g = graph::Csr::build(test::diamond_graph());
  SsspBsp sssp;
  sssp.source = 0;
  Config cfg = Config::workers(2);
  Engine<SsspBsp> engine(g, test::hash_partition(g, 2), sssp, cfg);
  (void)engine.run();
  const auto reference = algo::sssp_reference(g, 0);
  ASSERT_EQ(reference.size(), 4u);
  EXPECT_DOUBLE_EQ(engine.values()[3], 3.0);
  for (VertexId v = 0; v < 4; ++v) EXPECT_DOUBLE_EQ(engine.values()[v], reference[v]);
}

TEST(BspSssp, MatchesDijkstraOnRoadGrid) {
  graph::gen::RoadSpec spec;
  spec.rows = 15;
  spec.cols = 15;
  const graph::Csr g = graph::Csr::build(graph::gen::road_grid(spec, 7));
  SsspBsp sssp;
  sssp.source = 0;
  Config cfg = Config::workers(4);
  cfg.max_supersteps = 500;
  Engine<SsspBsp> engine(g, test::hash_partition(g, 4), sssp, cfg);
  (void)engine.run();
  const auto reference = algo::sssp_reference(g, 0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_NEAR(engine.values()[v], reference[v], 1e-9) << "vertex " << v;
  }
}

TEST(BspSssp, UnreachableVerticesStayInfinite) {
  graph::EdgeList e(3);
  e.add(0, 1, 2.0);  // vertex 2 unreachable
  const graph::Csr g = graph::Csr::build(e);
  SsspBsp sssp;
  sssp.source = 0;
  Engine<SsspBsp> engine(g, test::hash_partition(g, 2), sssp, Config::workers(2));
  (void)engine.run();
  EXPECT_TRUE(std::isinf(engine.values()[2]));
  EXPECT_DOUBLE_EQ(engine.values()[1], 2.0);
}

TEST(BspSssp, PushModeActivatesOnlyFrontier) {
  // Push-mode: active vertex count per superstep tracks the BFS frontier,
  // not the whole graph (contrast with the PR test above).
  graph::gen::RoadSpec spec;
  spec.rows = 12;
  spec.cols = 12;
  spec.shortcut_fraction = 0.0;
  const graph::Csr g = graph::Csr::build(graph::gen::road_grid(spec, 9));
  SsspBsp sssp;
  sssp.source = 0;
  Config cfg = Config::workers(2);
  cfg.max_supersteps = 300;
  Engine<SsspBsp> engine(g, test::hash_partition(g, 2), sssp, cfg);
  const auto stats = engine.run();
  // After the initial all-active superstep, frontiers are small.
  for (std::size_t s = 1; s < stats.supersteps.size(); ++s) {
    EXPECT_LT(stats.supersteps[s].active_vertices, g.num_vertices());
  }
}

TEST(BspEngine, CheckpointRestoreResumesExactly) {
  const graph::Csr g = graph::Csr::build(graph::gen::rmat(8, 1500, 21));
  const auto part = test::hash_partition(g, 3);
  PageRankBsp pr;
  pr.epsilon = 1e-11;

  // Uninterrupted run.
  Config cfg = Config::workers(3);
  cfg.max_supersteps = 200;
  Engine<PageRankBsp> full(g, part, pr, cfg);
  (void)full.run();

  // Run 10 supersteps, checkpoint, restore into a fresh engine, finish.
  Config cfg10 = cfg;
  cfg10.max_supersteps = 10;
  Engine<PageRankBsp> first(g, part, pr, cfg10);
  (void)first.run();
  ByteWriter snapshot;
  first.checkpoint(snapshot);

  Engine<PageRankBsp> resumed(g, part, pr, cfg);
  ByteReader reader(snapshot.bytes());
  resumed.restore(reader);
  EXPECT_EQ(resumed.superstep(), 10u);
  (void)resumed.run();
  EXPECT_LT(max_abs_diff(resumed.values(), full.values()), 1e-12);
}

TEST(BspEngine, TracksLockAcquisitionsAndChurn) {
  const graph::Csr g = graph::Csr::build(graph::gen::rmat(8, 2000, 31));
  PageRankBsp pr;
  pr.epsilon = 1e-6;
  Config cfg = Config::workers(4);
  cfg.max_supersteps = 20;
  Engine<PageRankBsp> engine(g, test::hash_partition(g, 4), pr, cfg);
  const auto stats = engine.run();
  // Every delivered message costs one global-queue lock acquisition.
  EXPECT_EQ(engine.lock_acquisitions(), stats.net_totals().total_messages());
  EXPECT_GT(engine.memory_report().message_churn_bytes, 0u);
}

TEST(BspEngine, RedundantMessageTrackingFindsConvergedSenders) {
  const graph::Csr g = graph::Csr::build(graph::gen::rmat(9, 3000, 37));
  PageRankBsp pr;
  pr.epsilon = 1e-10;
  Config cfg = Config::workers(2);
  cfg.track_redundant = true;
  cfg.max_supersteps = 40;
  Engine<PageRankBsp> engine(g, test::hash_partition(g, 2), pr, cfg);
  const auto stats = engine.run();
  std::uint64_t redundant = 0;
  for (const auto& s : stats.supersteps) redundant += s.redundant_messages;
  // Fig 3(2): late supersteps re-send identical values.
  EXPECT_GT(redundant, 0u);
}

TEST(BspEngine, MaxSuperstepsBoundsRun) {
  const graph::Csr g = graph::Csr::build(graph::gen::rmat(8, 1500, 41));
  PageRankBsp pr;
  pr.epsilon = 0.0;  // never converges on its own
  Config cfg = Config::workers(2);
  cfg.max_supersteps = 7;
  Engine<PageRankBsp> engine(g, test::hash_partition(g, 2), pr, cfg);
  const auto stats = engine.run();
  EXPECT_EQ(stats.supersteps.size(), 7u);
}

TEST(BspEngine, PhaseTimesPopulated) {
  const graph::Csr g = graph::Csr::build(graph::gen::rmat(9, 4000, 43));
  PageRankBsp pr;
  pr.epsilon = 1e-8;
  Config cfg = Config::workers(4);
  cfg.max_supersteps = 15;
  Engine<PageRankBsp> engine(g, test::hash_partition(g, 4), pr, cfg);
  const auto stats = engine.run();
  const auto phases = stats.phase_totals();
  EXPECT_GT(phases.cmp_s, 0.0);
  EXPECT_GT(phases.snd_s, 0.0);
  EXPECT_GT(phases.prs_s, 0.0);
  EXPECT_GT(stats.modeled_comm_total_s(), 0.0);
  EXPECT_GT(stats.total_time_s(), stats.phase_totals().total_s());
}

}  // namespace
}  // namespace cyclops::bsp

namespace cyclops::bsp {
namespace {

// Probe programs (namespace scope: local classes cannot hold member
// templates).
struct AggregatorProbe {
  using Value = double;
  using Message = double;
  std::vector<double>* seen = nullptr;
  Value init(VertexId, const graph::GraphStore&) const { return 0.0; }
  template <typename Ctx>
  void compute(Ctx& ctx, std::span<const Message>) const {
    if (ctx.vertex() == 0) seen->push_back(ctx.global_error());
    ctx.aggregate_error(static_cast<double>(ctx.superstep() + 1));
    if (ctx.superstep() >= 3) {
      ctx.vote_to_halt();
    } else {
      ctx.send_to(ctx.vertex(), 0.0);  // keep self alive
    }
  }
};

struct SelfCounterProbe {
  using Value = double;
  using Message = double;
  Value init(VertexId, const graph::GraphStore&) const { return 0.0; }
  template <typename Ctx>
  void compute(Ctx& ctx, std::span<const Message> msgs) const {
    ctx.set_value(ctx.value() + static_cast<double>(msgs.size()));
    if (ctx.superstep() < 4) {
      ctx.send_to(ctx.vertex(), 1.0);
    }
    ctx.vote_to_halt();
  }
};

TEST(BspAggregator, GlobalErrorLagsBySuperstep) {
  // Pregel aggregator semantics: values aggregated in superstep s are
  // visible to compute in superstep s+1.
  graph::EdgeList e(2);
  e.add(0, 1);
  const graph::Csr g = graph::Csr::build(e);
  std::vector<double> seen;
  AggregatorProbe probe;
  probe.seen = &seen;
  Config cfg = Config::workers(1);
  cfg.max_supersteps = 6;
  Engine<AggregatorProbe> engine(g, test::hash_partition(g, 1), probe, cfg);
  (void)engine.run();
  ASSERT_GE(seen.size(), 3u);
  EXPECT_TRUE(std::isinf(seen[0]));       // nothing aggregated before superstep 0
  EXPECT_DOUBLE_EQ(seen[1], 1.0);          // superstep 0 aggregated value
  EXPECT_DOUBLE_EQ(seen[2], 2.0);          // superstep 1 aggregated value
}

TEST(BspEngine, ObserverSeesEverySuperstep) {
  const graph::Csr g = graph::Csr::build(graph::gen::rmat(7, 500, 3));
  algo::PageRankBsp pr;
  pr.epsilon = 1e-6;
  Config cfg = Config::workers(2);
  cfg.max_supersteps = 9;
  Engine<algo::PageRankBsp> engine(g, test::hash_partition(g, 2), pr, cfg);
  std::vector<Superstep> observed;
  engine.set_observer([&](const metrics::SuperstepStats& s, const Engine<algo::PageRankBsp>&) {
    observed.push_back(s.superstep);
  });
  const auto stats = engine.run();
  ASSERT_EQ(observed.size(), stats.supersteps.size());
  for (std::size_t i = 0; i < observed.size(); ++i) {
    EXPECT_EQ(observed[i], static_cast<Superstep>(i));
  }
}

TEST(BspEngine, MessagesToSelfDeliverNextSuperstep) {
  graph::EdgeList e(3);
  e.add(0, 1);
  e.add(1, 2);
  const graph::Csr g = graph::Csr::build(e);
  Engine<SelfCounterProbe> engine(g, test::hash_partition(g, 2), SelfCounterProbe{},
                                  Config::workers(2));
  (void)engine.run();
  // Supersteps 1..4 each deliver one self-message.
  for (VertexId v = 0; v < 3; ++v) EXPECT_DOUBLE_EQ(engine.values()[v], 4.0);
}

}  // namespace
}  // namespace cyclops::bsp
