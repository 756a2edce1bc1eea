// Wire-determinism regression: the traffic a seeded workload puts on the
// simulated fabric must be bit-identical across runs — content AND ordering.
// This is the runtime twin of cyclops-analyze's `unordered-wire` rule: the BSP
// combiner used to drain its unordered_map straight onto the wire, which
// produced correct ranks but hash-order packages; Fabric::wire_digest()
// (an order-sensitive fold of every delivered package's src/dst/count/CRC)
// turns that into a hard test failure.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "cyclops/graph/csr.hpp"
#include "cyclops/algorithms/cc.hpp"
#include "cyclops/algorithms/pagerank.hpp"
#include "cyclops/algorithms/sssp.hpp"
#include "cyclops/bsp/engine.hpp"
#include "cyclops/core/engine.hpp"
#include "cyclops/gas/engine.hpp"
#include "cyclops/graph/generators.hpp"
#include "cyclops/partition/vertex_cut.hpp"
#include "cyclops/sim/sched.hpp"
#include "test_util.hpp"

namespace cyclops {
namespace {

struct RunResult {
  std::uint64_t digest = 0;
  std::vector<double> values;
};

RunResult run_bsp_pagerank(bool use_combiner) {
  const graph::Csr g = graph::Csr::build(graph::gen::rmat(8, 1500, 13));
  algo::PageRankBsp pr;
  pr.epsilon = 1e-11;
  bsp::Config cfg = bsp::Config::workers(4);
  cfg.max_supersteps = 120;
  cfg.use_combiner = use_combiner;
  bsp::Engine<algo::PageRankBsp> engine(g, test::hash_partition(g, 4), pr, cfg);
  (void)engine.run();
  const auto span = engine.values();
  return RunResult{engine.fabric().wire_digest(),
                   std::vector<double>(span.begin(), span.end())};
}

RunResult run_cyclops_sssp() {
  const graph::Csr g = graph::Csr::build(graph::gen::rmat(8, 1500, 29));
  algo::SsspCyclops sssp;
  core::Config cfg = core::Config::cyclops(2, 2);
  cfg.max_supersteps = 200;
  core::Engine<algo::SsspCyclops> engine(g, test::hash_partition(g, 4), sssp, cfg);
  (void)engine.run();
  const auto span = engine.values();
  return RunResult{engine.fabric().wire_digest(),
                   std::vector<double>(span.begin(), span.end())};
}

/// PowerGraph PageRank over a random vertex cut: all four master<->mirror
/// exchanges per iteration.
RunResult run_gas_pagerank() {
  const graph::Csr g = graph::Csr::build(graph::gen::rmat(8, 1500, 13));
  algo::PageRankGas pr;
  pr.num_vertices = g.num_vertices();
  pr.epsilon = 1e-11;
  gas::Config cfg = gas::Config::workers(4);
  cfg.max_iterations = 120;
  gas::Engine<algo::PageRankGas> engine(g, partition::RandomVertexCut{}.partition(g, 4),
                                        pr, cfg);
  (void)engine.run();
  RunResult r{engine.fabric().wire_digest(), {}};
  for (const auto& v : engine.values()) r.values.push_back(v.rank);
  return r;
}

// The regression that motivated the sorted combiner drain: two identical
// combiner-enabled BSP runs must emit byte-identical wire traffic in the
// same package order. Before the fix this held for results but not digests.
TEST(WireDeterminism, BspCombinerTrafficIsBitIdenticalAcrossRuns) {
  const RunResult a = run_bsp_pagerank(/*use_combiner=*/true);
  const RunResult b = run_bsp_pagerank(/*use_combiner=*/true);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.values, b.values);
  EXPECT_NE(a.digest, 0xcbf29ce484222325ULL) << "digest never folded a package";
}

TEST(WireDeterminism, BspUncombinedTrafficIsBitIdenticalAcrossRuns) {
  const RunResult a = run_bsp_pagerank(/*use_combiner=*/false);
  const RunResult b = run_bsp_pagerank(/*use_combiner=*/false);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.values, b.values);
}

TEST(WireDeterminism, CyclopsSyncTrafficIsBitIdenticalAcrossRuns) {
  const RunResult a = run_cyclops_sssp();
  const RunResult b = run_cyclops_sssp();
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.values, b.values);
}

TEST(WireDeterminism, GasPageRankTrafficIsBitIdenticalAcrossRuns) {
  const RunResult a = run_gas_pagerank();
  const RunResult b = run_gas_pagerank();
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.values, b.values);
  EXPECT_NE(a.digest, 0xcbf29ce484222325ULL) << "digest never folded a package";
}

// Combining changes the wire layout (fewer, merged records), so the combined
// and uncombined digests must differ while converged ranks agree — evidence
// the digest actually reflects wire bytes rather than results.
TEST(WireDeterminism, DigestDistinguishesCombinerWireLayout) {
  const RunResult combined = run_bsp_pagerank(/*use_combiner=*/true);
  const RunResult plain = run_bsp_pagerank(/*use_combiner=*/false);
  EXPECT_NE(combined.digest, plain.digest);
}

// ---- Schedule independence: the stronger claim. Not only must identical
// runs agree — runs under *different task interleavings* must too. Each seed
// pins the engine's pool to a distinct permuted schedule (and chunking) via
// sim::ScheduleExplorer; wire digest and every final value must come out
// bit-identical, or the engine's output depends on execution order. ----

constexpr std::uint64_t kSeeds[] = {0, 1, 2, 3, 4, 5, 6, 7};

/// Runs `Prog` on a Cyclops engine pinned to `seed`'s schedule.
template <typename Prog>
RunResult run_cyclops_scheduled(Prog prog, std::uint64_t seed, std::uint64_t graph_seed) {
  const graph::Csr g = graph::Csr::build(graph::gen::rmat(8, 1500, graph_seed));
  core::Config cfg = core::Config::cyclops(2, 2);
  cfg.max_supersteps = 200;
  cfg.schedule = std::make_shared<sim::ScheduleExplorer>(seed);
  core::Engine<Prog> engine(g, test::hash_partition(g, 4), prog, cfg);
  (void)engine.run();
  const auto span = engine.values();
  return RunResult{engine.fabric().wire_digest(),
                   std::vector<double>(span.begin(), span.end())};
}

template <typename Prog>
void expect_schedule_independent(Prog prog, std::uint64_t graph_seed) {
  const RunResult base = run_cyclops_scheduled(prog, kSeeds[0], graph_seed);
  EXPECT_NE(base.digest, 0xcbf29ce484222325ULL);
  for (std::size_t i = 1; i < std::size(kSeeds); ++i) {
    const RunResult r = run_cyclops_scheduled(prog, kSeeds[i], graph_seed);
    EXPECT_EQ(r.digest, base.digest) << "wire digest diverged at seed " << kSeeds[i];
    EXPECT_EQ(r.values, base.values) << "values diverged at seed " << kSeeds[i];
  }
}

TEST(ScheduleIndependence, CyclopsPageRankIsBitIdenticalAcross8Schedules) {
  algo::PageRankCyclops pr;
  pr.epsilon = 1e-11;
  expect_schedule_independent(pr, 13);
}

TEST(ScheduleIndependence, CyclopsSsspIsBitIdenticalAcross8Schedules) {
  expect_schedule_independent(algo::SsspCyclops{}, 29);
}

TEST(ScheduleIndependence, CyclopsCcIsBitIdenticalAcross8Schedules) {
  expect_schedule_independent(algo::CcCyclops{}, 47);
}

TEST(ScheduleIndependence, BspPageRankIsBitIdenticalAcross8Schedules) {
  const graph::Csr g = graph::Csr::build(graph::gen::rmat(8, 1500, 13));
  RunResult base;
  for (std::size_t i = 0; i < std::size(kSeeds); ++i) {
    algo::PageRankBsp pr;
    pr.epsilon = 1e-11;
    bsp::Config cfg = bsp::Config::workers(4);
    cfg.max_supersteps = 120;
    cfg.use_combiner = true;
    cfg.schedule = std::make_shared<sim::ScheduleExplorer>(kSeeds[i]);
    bsp::Engine<algo::PageRankBsp> engine(g, test::hash_partition(g, 4), pr, cfg);
    (void)engine.run();
    const auto span = engine.values();
    RunResult r{engine.fabric().wire_digest(),
                std::vector<double>(span.begin(), span.end())};
    if (i == 0) {
      base = std::move(r);
      continue;
    }
    EXPECT_EQ(r.digest, base.digest) << "wire digest diverged at seed " << kSeeds[i];
    EXPECT_EQ(r.values, base.values) << "values diverged at seed " << kSeeds[i];
  }
}

}  // namespace
}  // namespace cyclops
