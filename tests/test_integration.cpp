// Cross-engine integration tests: the same algorithm on the same graph must
// agree across BSP, Cyclops, CyclopsMT and GAS, for every partitioner and
// worker count — and the paper's headline communication claims must hold
// (Cyclops sends a fraction of BSP's messages; GAS sends a multiple of
// Cyclops').

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <type_traits>

#include "cyclops/graph/csr.hpp"
#include "cyclops/algorithms/als.hpp"
#include "cyclops/algorithms/cd.hpp"
#include "cyclops/algorithms/datasets.hpp"
#include "cyclops/algorithms/pagerank.hpp"
#include "cyclops/algorithms/sssp.hpp"
#include "cyclops/bsp/engine.hpp"
#include "cyclops/core/engine.hpp"
#include "cyclops/gas/engine.hpp"
#include "cyclops/graph/generators.hpp"
#include "cyclops/partition/hash.hpp"
#include "cyclops/partition/ldg.hpp"
#include "cyclops/partition/multilevel.hpp"
#include "cyclops/partition/vertex_cut.hpp"
#include "test_util.hpp"

namespace cyclops {
namespace {

double max_abs_diff(std::span<const double> a, std::span<const double> b) {
  double m = 0;
  for (std::size_t i = 0; i < a.size(); ++i) m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

partition::EdgeCutPartition make_partition(const graph::Csr& g, bool multilevel,
                                           WorkerId parts) {
  if (multilevel) return partition::MultilevelPartitioner{}.partition(g, parts);
  return partition::HashPartitioner{}.partition(g, parts);
}

// ---------- PageRank across all engines ----------

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
  const graph::EdgeList edges = graph::gen::rmat(9, 3500, 2014);
  const graph::Csr g = graph::Csr::build(edges);
  const auto reference = algo::pagerank_reference(g);
  const auto part = make_partition(g, multilevel, workers);

  {
    algo::PageRankBsp pr;
    pr.epsilon = 1e-12;
    bsp::Config cfg = bsp::Config::workers(workers);
    cfg.max_supersteps = 300;
    bsp::Engine<algo::PageRankBsp> engine(g, part, pr, cfg);
    (void)engine.run();
    EXPECT_LT(max_abs_diff(engine.values(), reference), 1e-8) << "bsp";
  }
  {
    algo::PageRankCyclops pr;
    pr.epsilon = 1e-12;
    core::Config cfg = mt_threads > 0 ? core::Config::cyclops_mt(workers, mt_threads, 2)
                                      : core::Config::cyclops(workers, 1);
    cfg.max_supersteps = 300;
    core::Engine<algo::PageRankCyclops> engine(g, part, pr, cfg);
    (void)engine.run();
    EXPECT_LT(max_abs_diff(engine.values(), reference), 1e-8) << "cyclops";
    EXPECT_TRUE(engine.replicas_consistent());
  }
  {
    algo::PageRankGas pr;
    pr.num_vertices = g.num_vertices();
    pr.epsilon = 1e-12;
    gas::Config cfg = gas::Config::workers(workers);
    cfg.max_iterations = 300;
    gas::Engine<algo::PageRankGas> engine(
        g, partition::GreedyVertexCut{}.partition(g, workers), pr, cfg);
    (void)engine.run();
    const auto values = engine.values();
    double md = 0;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      md = std::max(md, std::abs(values[v].rank - reference[v]));
    }
    EXPECT_LT(md, 1e-8) << "gas";
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

// ---------- SSSP: BSP vs Cyclops exact agreement ----------

class SsspEngines : public ::testing::TestWithParam<WorkerId> {};

TEST_P(SsspEngines, BspAndCyclopsMatchDijkstra) {
  const WorkerId workers = GetParam();
  graph::gen::RoadSpec spec;
  spec.rows = 18;
  spec.cols = 18;
  spec.shortcut_fraction = 0.02;
  const graph::Csr g = graph::Csr::build(graph::gen::road_grid(spec, 2014));
  const auto reference = algo::sssp_reference(g, 0);
  const auto part = test::hash_partition(g, workers);

  algo::SsspBsp bsp_prog;
  bsp_prog.source = 0;
  bsp::Config bsp_cfg = bsp::Config::workers(workers);
  bsp_cfg.max_supersteps = 600;
  bsp::Engine<algo::SsspBsp> bsp_engine(g, part, bsp_prog, bsp_cfg);
  (void)bsp_engine.run();

  algo::SsspCyclops cy_prog;
  cy_prog.source = 0;
  core::Config cy_cfg = core::Config::cyclops(workers, 1);
  cy_cfg.max_supersteps = 600;
  core::Engine<algo::SsspCyclops> cy_engine(g, part, cy_prog, cy_cfg);
  (void)cy_engine.run();

  const auto cy_values = cy_engine.values();
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_NEAR(bsp_engine.values()[v], reference[v], 1e-9);
    EXPECT_NEAR(cy_values[v], reference[v], 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Workers, SsspEngines, ::testing::Values(1u, 2u, 5u, 8u));

// ---------- CD: BSP vs Cyclops agreement on converged graphs ----------

TEST(CdEngines, BspAndCyclopsAgreeAtConvergence) {
  graph::gen::CommunitySpec spec{6, 40, 8, 0.95};
  const graph::Csr g = graph::Csr::build(graph::gen::planted_communities(spec, 2014));
  const auto part = test::hash_partition(g, 4);

  algo::CdBsp bsp_prog;
  bsp::Config bsp_cfg = bsp::Config::workers(4);
  bsp_cfg.max_supersteps = 60;
  bsp::Engine<algo::CdBsp> bsp_engine(g, part, bsp_prog, bsp_cfg);
  (void)bsp_engine.run();

  algo::CdCyclops cy_prog;
  core::Config cy_cfg = core::Config::cyclops(4, 1);
  cy_cfg.max_supersteps = 60;
  core::Engine<algo::CdCyclops> cy_engine(g, part, cy_prog, cy_cfg);
  (void)cy_engine.run();

  const auto cy_labels = cy_engine.values();
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(bsp_engine.values()[v], cy_labels[v]) << "vertex " << v;
  }
}

// ---------- ALS: BSP vs Cyclops vs reference ----------

TEST(AlsEngines, AllAgreeWithReference) {
  graph::gen::BipartiteSpec spec{100, 30, 6};
  const graph::Csr g = graph::Csr::build(graph::gen::bipartite_ratings(spec, 2014));
  const auto part = test::hash_partition(g, 3);
  const unsigned rounds = 6;
  const auto reference = algo::als_reference(g, spec.users, rounds, 0.05);

  algo::AlsBsp bsp_prog;
  bsp_prog.num_users = spec.users;
  bsp_prog.rounds = rounds;
  bsp::Config bsp_cfg = bsp::Config::workers(3);
  bsp_cfg.max_supersteps = rounds + 3;
  bsp::Engine<algo::AlsBsp> bsp_engine(g, part, bsp_prog, bsp_cfg);
  (void)bsp_engine.run();

  algo::AlsCyclops cy_prog;
  cy_prog.num_users = spec.users;
  cy_prog.rounds = rounds;
  core::Config cy_cfg = core::Config::cyclops(3, 1);
  cy_cfg.max_supersteps = rounds + 1;
  core::Engine<algo::AlsCyclops> cy_engine(g, part, cy_prog, cy_cfg);
  (void)cy_engine.run();

  const auto cy_values = cy_engine.values();
  double bsp_diff = 0;
  double cy_diff = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (std::size_t k = 0; k < algo::kAlsRank; ++k) {
      bsp_diff = std::max(bsp_diff, std::abs(bsp_engine.values()[v][k] - reference[v][k]));
      cy_diff = std::max(cy_diff, std::abs(cy_values[v][k] - reference[v][k]));
    }
  }
  EXPECT_LT(bsp_diff, 1e-7);
  EXPECT_LT(cy_diff, 1e-7);
}

// ---------- Communication claims (the paper's headline) ----------

TEST(CommunicationClaims, CyclopsSendsFarFewerMessagesThanBsp) {
  // §1/§6.4: redundant-message elimination. Same graph, same partition.
  const graph::Csr g = graph::Csr::build(graph::gen::rmat(10, 8000, 99));
  const auto part = test::hash_partition(g, 6);

  algo::PageRankBsp bsp_prog;
  bsp_prog.epsilon = 1e-9;
  bsp::Config bsp_cfg = bsp::Config::workers(6);
  bsp_cfg.max_supersteps = 60;
  bsp::Engine<algo::PageRankBsp> bsp_engine(g, part, bsp_prog, bsp_cfg);
  const auto bsp_stats = bsp_engine.run();

  algo::PageRankCyclops cy_prog;
  cy_prog.epsilon = 1e-9;
  core::Config cy_cfg = core::Config::cyclops(6, 1);
  cy_cfg.max_supersteps = 60;
  core::Engine<algo::PageRankCyclops> cy_engine(g, part, cy_prog, cy_cfg);
  const auto cy_stats = cy_engine.run();

  EXPECT_LT(cy_stats.net_totals().total_messages(),
            bsp_stats.net_totals().total_messages() / 2);
}

TEST(CommunicationClaims, GasSendsMultipleOfCyclops) {
  // §6.12: PowerGraph needs ~5 messages per replica; Cyclops at most 1.
  const graph::EdgeList edges = graph::gen::rmat(9, 5000, 101);
  const graph::Csr g = graph::Csr::build(edges);

  algo::PageRankCyclops cy_prog;
  cy_prog.epsilon = 1e-9;
  core::Config cy_cfg = core::Config::cyclops(6, 1);
  cy_cfg.max_supersteps = 40;
  core::Engine<algo::PageRankCyclops> cy_engine(g, test::hash_partition(g, 6), cy_prog,
                                                cy_cfg);
  const auto cy_stats = cy_engine.run();
  const double cy_msg_per_step =
      static_cast<double>(cy_stats.net_totals().total_messages()) /
      static_cast<double>(cy_stats.supersteps.size());

  algo::PageRankGas gas_prog;
  gas_prog.num_vertices = g.num_vertices();
  gas_prog.epsilon = 1e-9;
  gas::Config gas_cfg = gas::Config::workers(6);
  gas_cfg.max_iterations = 40;
  gas::Engine<algo::PageRankGas> gas_engine(
      g, partition::RandomVertexCut{}.partition(g, 6), gas_prog, gas_cfg);
  const auto gas_stats = gas_engine.run();
  const double gas_msg_per_step =
      static_cast<double>(gas_stats.net_totals().total_messages()) /
      static_cast<double>(gas_stats.supersteps.size());

  EXPECT_GT(gas_msg_per_step, 2.0 * cy_msg_per_step);
}

TEST(CommunicationClaims, MtReducesRemoteMessagesVsFlatWorkers) {
  // §5: one partition per machine (CyclopsMT) produces fewer replicas and
  // messages than one partition per core on the same machine count.
  const graph::Csr g = graph::Csr::build(graph::gen::rmat(10, 8000, 103));

  algo::PageRankCyclops pr;
  pr.epsilon = 1e-9;

  core::Config flat = core::Config::cyclops(3, 4);  // 12 workers
  flat.max_supersteps = 30;
  core::Engine<algo::PageRankCyclops> flat_engine(g, test::hash_partition(g, 12), pr, flat);
  const auto flat_stats = flat_engine.run();

  core::Config mt = core::Config::cyclops_mt(3, 4, 2);  // 3 workers x 4 threads
  mt.max_supersteps = 30;
  core::Engine<algo::PageRankCyclops> mt_engine(g, test::hash_partition(g, 3), pr, mt);
  const auto mt_stats = mt_engine.run();

  EXPECT_LT(mt_engine.layout().total_replicas, flat_engine.layout().total_replicas);
  EXPECT_LT(mt_stats.net_totals().total_messages(),
            flat_stats.net_totals().total_messages());
}

// ---------- Dataset pipeline smoke: every Table 1 row runs end-to-end ----------

TEST(DatasetPipeline, EveryDatasetRunsItsWorkloadOnCyclops) {
  algo::DatasetScale scale;
  scale.factor = 0.125;
  const auto datasets = algo::make_all_datasets(scale);
  for (const auto& d : datasets) {
    const graph::Csr g = graph::Csr::build(d.edges);
    const auto part = test::hash_partition(g, 4);
    core::Config cfg = core::Config::cyclops(4, 1);
    cfg.max_supersteps = 15;
    switch (d.workload) {
      case algo::Algo::kPageRank: {
        algo::PageRankCyclops pr;
        pr.epsilon = 1e-7;
        core::Engine<algo::PageRankCyclops> engine(g, part, pr, cfg);
        const auto stats = engine.run();
        EXPECT_FALSE(stats.supersteps.empty()) << d.name;
        break;
      }
      case algo::Algo::kAls: {
        algo::AlsCyclops als;
        als.num_users = d.num_users;
        als.rounds = 4;
        core::Engine<algo::AlsCyclops> engine(g, part, als, cfg);
        (void)engine.run();
        const double rmse = algo::als_rmse(g, d.num_users, engine.values());
        EXPECT_LT(rmse, 2.0) << d.name;
        break;
      }
      case algo::Algo::kCd: {
        algo::CdCyclops cd;
        core::Engine<algo::CdCyclops> engine(g, part, cd, cfg);
        (void)engine.run();
        EXPECT_GT(algo::label_agreement(g, engine.values()), 0.3) << d.name;
        break;
      }
      case algo::Algo::kSssp: {
        algo::SsspCyclops sssp;
        sssp.source = 0;
        cfg.max_supersteps = 400;
        core::Engine<algo::SsspCyclops> engine(g, part, sssp, cfg);
        (void)engine.run();
        const auto reference = algo::sssp_reference(g, 0);
        const auto values = engine.values();
        double md = 0;
        for (VertexId v = 0; v < g.num_vertices(); ++v) {
          if (std::isfinite(reference[v])) md = std::max(md, std::abs(values[v] - reference[v]));
        }
        EXPECT_LT(md, 1e-9) << d.name;
        break;
      }
      case algo::Algo::kCc:  // no Table 1 row runs CC
        break;
    }
  }
}

}  // namespace
}  // namespace cyclops

namespace cyclops {
namespace {

TEST(LdgIntegration, PageRankCorrectUnderStreamingPartition) {
  const graph::Csr g = graph::Csr::build(graph::gen::rmat(9, 3000, 505));
  const auto part = partition::LdgPartitioner{}.partition(g, 6);
  algo::PageRankCyclops pr;
  pr.epsilon = 1e-12;
  core::Config cfg = core::Config::cyclops(6, 1);
  cfg.max_supersteps = 300;
  core::Engine<algo::PageRankCyclops> engine(g, part, pr, cfg);
  (void)engine.run();
  EXPECT_LT(max_abs_diff(engine.values(), algo::pagerank_reference(g)), 1e-8);
  EXPECT_TRUE(engine.replicas_consistent());
}

TEST(ObserverIntegration, CyclopsObserverMatchesRunStats) {
  const graph::Csr g = graph::Csr::build(graph::gen::rmat(8, 1200, 7));
  algo::PageRankCyclops pr;
  pr.epsilon = 1e-8;
  core::Config cfg = core::Config::cyclops(3, 1);
  cfg.max_supersteps = 15;
  core::Engine<algo::PageRankCyclops> engine(g, test::hash_partition(g, 3), pr, cfg);
  std::vector<std::uint64_t> observed_active;
  engine.set_observer([&](const metrics::SuperstepStats& s,
                          const core::Engine<algo::PageRankCyclops>&) {
    observed_active.push_back(s.active_vertices);
  });
  const auto stats = engine.run();
  ASSERT_EQ(observed_active.size(), stats.supersteps.size());
  for (std::size_t i = 0; i < observed_active.size(); ++i) {
    EXPECT_EQ(observed_active[i], stats.supersteps[i].active_vertices);
  }
}

TEST(DeterminismIntegration, IdenticalRunsProduceIdenticalStats) {
  // The deterministic time model's promise: two runs of the same
  // configuration report byte-identical traffic and work counters.
  const graph::Csr g = graph::Csr::build(graph::gen::rmat(9, 2500, 909));
  auto run_once = [&] {
    algo::PageRankCyclops pr;
    pr.epsilon = 1e-9;
    core::Config cfg = core::Config::cyclops_mt(4, 4, 2);
    cfg.max_supersteps = 25;
    core::Engine<algo::PageRankCyclops> engine(g, test::hash_partition(g, 4), pr, cfg);
    return engine.run();
  };
  const auto a = run_once();
  const auto b = run_once();
  ASSERT_EQ(a.supersteps.size(), b.supersteps.size());
  for (std::size_t i = 0; i < a.supersteps.size(); ++i) {
    EXPECT_EQ(a.supersteps[i].net.total_messages(), b.supersteps[i].net.total_messages());
    EXPECT_EQ(a.supersteps[i].active_vertices, b.supersteps[i].active_vertices);
    EXPECT_DOUBLE_EQ(a.supersteps[i].phases.cmp_s, b.supersteps[i].phases.cmp_s);
    EXPECT_DOUBLE_EQ(a.supersteps[i].phases.snd_s, b.supersteps[i].phases.snd_s);
  }
  EXPECT_DOUBLE_EQ(a.modeled_comm_total_s(), b.modeled_comm_total_s());
}

}  // namespace
}  // namespace cyclops
