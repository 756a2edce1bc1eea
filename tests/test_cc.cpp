// Tests for Connected Components: the union-find reference and both engine
// programs. Cross-engine agreement on assorted undirected graphs is the
// differential harness's Sweep/CcEngines (test_differential.cpp).

#include <gtest/gtest.h>

#include "cyclops/graph/csr.hpp"
#include "cyclops/algorithms/cc.hpp"
#include "cyclops/bsp/engine.hpp"
#include "cyclops/core/engine.hpp"
#include "cyclops/graph/generators.hpp"
#include "test_util.hpp"

namespace cyclops::algo {
namespace {

graph::EdgeList two_cliques_and_isolated() {
  graph::EdgeList e(9);  // cliques {0..3}, {4..7}; vertex 8 isolated
  for (VertexId v = 0; v < 4; ++v) {
    for (VertexId u = v + 1; u < 4; ++u) e.add_undirected(v, u);
  }
  for (VertexId v = 4; v < 8; ++v) {
    for (VertexId u = v + 1; u < 8; ++u) e.add_undirected(v, u);
  }
  return e;
}

TEST(CcReference, LabelsComponentsByMinId) {
  const graph::Csr g = graph::Csr::build(two_cliques_and_isolated());
  const auto labels = cc_reference(g);
  for (VertexId v = 0; v < 4; ++v) EXPECT_EQ(labels[v], 0u);
  for (VertexId v = 4; v < 8; ++v) EXPECT_EQ(labels[v], 4u);
  EXPECT_EQ(labels[8], 8u);
  EXPECT_EQ(count_components(labels), 3u);
}

TEST(CcReference, SingleChain) {
  graph::EdgeList e(5);
  for (VertexId v = 0; v + 1 < 5; ++v) e.add_undirected(v, v + 1);
  const auto labels = cc_reference(graph::Csr::build(e));
  EXPECT_EQ(count_components(labels), 1u);
  for (auto l : labels) EXPECT_EQ(l, 0u);
}

TEST(CcBsp, MatchesReference) {
  const graph::Csr g = graph::Csr::build(two_cliques_and_isolated());
  CcBsp prog;
  bsp::Config cfg = bsp::Config::workers(3);
  cfg.max_supersteps = 50;
  bsp::Engine<CcBsp> engine(g, test::hash_partition(g, 3), prog, cfg);
  (void)engine.run();
  const auto reference = cc_reference(g);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(engine.values()[v], reference[v]) << v;
  }
}

TEST(CcCyclops, MatchesReference) {
  const graph::Csr g = graph::Csr::build(two_cliques_and_isolated());
  CcCyclops prog;
  core::Config cfg = core::Config::cyclops(3, 1);
  cfg.max_supersteps = 50;
  core::Engine<CcCyclops> engine(g, test::hash_partition(g, 3), prog, cfg);
  (void)engine.run();
  const auto reference = cc_reference(g);
  const auto values = engine.values();
  for (VertexId v = 0; v < g.num_vertices(); ++v) EXPECT_EQ(values[v], reference[v]) << v;
}

TEST(CcCyclops, ActiveSetCollapsesAfterLabelsSettle) {
  graph::gen::RoadSpec spec;
  spec.rows = 12;
  spec.cols = 12;
  spec.shortcut_fraction = 0.0;
  const graph::Csr g = graph::Csr::build(graph::gen::road_grid(spec, 3));
  CcCyclops prog;
  core::Config cfg = core::Config::cyclops(4, 1);
  cfg.max_supersteps = 100;
  core::Engine<CcCyclops> engine(g, test::hash_partition(g, 4), prog, cfg);
  const auto stats = engine.run();
  // Min-label propagation across a 12x12 grid: label 0 sweeps diagonally, so
  // the frontier (active set) shrinks well below |V| after the start.
  ASSERT_GT(stats.supersteps.size(), 5u);
  EXPECT_LT(stats.supersteps[stats.supersteps.size() - 2].active_vertices,
            g.num_vertices() / 2);
  // The final superstep only recomputes the trailing frontier.
  EXPECT_LT(stats.supersteps.back().active_vertices, 12u);
}

}  // namespace
}  // namespace cyclops::algo
