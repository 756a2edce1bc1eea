// Tests for the algorithm layer itself: sequential references, the ALS
// linear-algebra kernel, and the program helpers shared across engines.

#include <gtest/gtest.h>

#include <cmath>

#include "cyclops/graph/csr.hpp"
#include "cyclops/algorithms/als.hpp"
#include "cyclops/algorithms/cd.hpp"
#include "cyclops/algorithms/datasets.hpp"
#include "cyclops/algorithms/linalg.hpp"
#include "cyclops/algorithms/pagerank.hpp"
#include "cyclops/algorithms/sssp.hpp"
#include "cyclops/graph/generators.hpp"
#include "test_util.hpp"

namespace cyclops::algo {
namespace {

TEST(Linalg, CholeskySolvesIdentity) {
  Mat<4> a;
  a.add_diagonal(1.0);
  Vec<4> b{1, 2, 3, 4};
  Vec<4> x{};
  ASSERT_TRUE(cholesky_solve(a, b, x));
  for (int i = 0; i < 4; ++i) EXPECT_NEAR(x[i], b[i], 1e-12);
}

TEST(Linalg, CholeskySolvesSpdSystem) {
  // A = M^T M + I is SPD for any M.
  Mat<3> a;
  const Vec<3> rows[3] = {{2, 1, 0}, {1, 3, 1}, {0, 1, 2}};
  for (const auto& r : rows) a.add_outer(r);
  a.add_diagonal(1.0);
  const Vec<3> truth{1.0, -2.0, 0.5};
  Vec<3> b{};
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) b[r] += a(r, c) * truth[c];
  }
  Vec<3> x{};
  ASSERT_TRUE(cholesky_solve(a, b, x));
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(x[i], truth[i], 1e-10);
}

TEST(Linalg, CholeskyRejectsIndefinite) {
  Mat<2> a;
  a(0, 0) = 1;
  a(1, 1) = -1;
  Vec<2> b{1, 1};
  Vec<2> x{};
  EXPECT_FALSE(cholesky_solve(a, b, x));
}

TEST(Linalg, DotAndAxpy) {
  Vec<3> a{1, 2, 3};
  const Vec<3> b{4, 5, 6};
  EXPECT_DOUBLE_EQ(dot(a, b), 32.0);
  axpy(a, 2.0, b);
  EXPECT_DOUBLE_EQ(a[0], 9.0);
  EXPECT_DOUBLE_EQ(a[2], 15.0);
}

TEST(PageRankReference, SumsToOneOnStronglyConnected) {
  graph::EdgeList e(3);
  e.add(0, 1);
  e.add(1, 2);
  e.add(2, 0);
  const auto rank = pagerank_reference(graph::Csr::build(e));
  EXPECT_NEAR(rank[0] + rank[1] + rank[2], 1.0, 1e-10);
  // Symmetric cycle: all equal.
  EXPECT_NEAR(rank[0], rank[1], 1e-12);
}

TEST(PageRankReference, HubGetsHighestRank) {
  // Everyone links to vertex 0.
  graph::EdgeList e(5);
  for (VertexId v = 1; v < 5; ++v) e.add(v, 0);
  e.add(0, 1);
  const auto rank = pagerank_reference(graph::Csr::build(e));
  for (VertexId v = 1; v < 5; ++v) EXPECT_GT(rank[0], rank[v]);
}

// The residual certificate bounds the true L1 distance to the fixpoint from
// above for any vector, on a graph with dangling vertices, and is at most
// (1 + d) / (1 - d) times that distance; it vanishes at the fixpoint.
TEST(PageRankResidual, BoundsTheDistanceToTheFixpoint) {
  const graph::Csr g = graph::Csr::build(graph::gen::rmat(8, 1500, 3));
  const auto fixpoint = pagerank_reference(g, 2000, 1e-16);
  EXPECT_LT(pagerank_residual(g, fixpoint), 1e-12);
  constexpr double kTightness = (1 - kPageRankDamping) / (1 + kPageRankDamping);
  for (unsigned iterations : {0u, 1u, 2u, 8u}) {  // 0: the uniform start vector
    const auto x = pagerank_reference(g, iterations);
    double distance = 0;
    for (VertexId v = 0; v < g.num_vertices(); ++v) distance += std::abs(x[v] - fixpoint[v]);
    const double certificate = pagerank_residual(g, x);
    EXPECT_LE(distance, certificate);
    EXPECT_GE(distance, kTightness * certificate);
  }
}

TEST(SsspReference, KnownDistances) {
  const auto dist = sssp_reference(graph::Csr::build(test::diamond_graph()), 0);
  EXPECT_DOUBLE_EQ(dist[0], 0.0);
  EXPECT_DOUBLE_EQ(dist[1], 1.0);
  EXPECT_DOUBLE_EQ(dist[2], 2.0);
  EXPECT_DOUBLE_EQ(dist[3], 3.0);
}

TEST(CdHelpers, MajorityLabelTieBreaksSmallest) {
  std::vector<Label> labels{5, 3, 5, 3, 9};
  EXPECT_EQ(detail::majority_label(labels, 0), 3u);
  std::vector<Label> empty;
  EXPECT_EQ(detail::majority_label(empty, 7), 7u);
  std::vector<Label> single{2};
  EXPECT_EQ(detail::majority_label(single, 0), 2u);
}

TEST(CdReference, PerfectCommunitiesOnDisjointCliques) {
  graph::EdgeList e(8);
  for (VertexId v = 0; v < 4; ++v) {
    for (VertexId u = v + 1; u < 4; ++u) e.add_undirected(v, u);
  }
  for (VertexId v = 4; v < 8; ++v) {
    for (VertexId u = v + 1; u < 8; ++u) e.add_undirected(v, u);
  }
  const graph::Csr g = graph::Csr::build(e);
  const auto labels = cd_reference(g, 20);
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_EQ(labels[0], labels[3]);
  EXPECT_EQ(labels[4], labels[7]);
  EXPECT_NE(labels[0], labels[4]);
  EXPECT_DOUBLE_EQ(label_agreement(g, labels), 1.0);
}

TEST(AlsHelpers, InitFactorDeterministicAndBounded) {
  const Factor a = als_init_factor(17);
  const Factor b = als_init_factor(17);
  EXPECT_EQ(a, b);
  for (double x : a) {
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
  EXPECT_NE(als_init_factor(17), als_init_factor(18));
}

TEST(AlsHelpers, SolveRecoversExactFactorization) {
  // If ratings are exactly p·q for a known p, solving with those q (and tiny
  // lambda) recovers p.
  Factor p{};
  for (std::size_t k = 0; k < kAlsRank; ++k) p[k] = 0.1 * static_cast<double>(k + 1);
  std::vector<Factor> qs;
  std::vector<double> ratings;
  for (int i = 0; i < 30; ++i) {
    qs.push_back(als_init_factor(static_cast<VertexId>(100 + i)));
    ratings.push_back(dot(p, qs.back()));
  }
  const Factor solved = als_solve(qs, ratings, 1e-12);
  for (std::size_t k = 0; k < kAlsRank; ++k) EXPECT_NEAR(solved[k], p[k], 1e-6);
}

TEST(AlsReference, RmseImprovesMonotonicallyEarly) {
  graph::gen::BipartiteSpec spec{150, 50, 8};
  const graph::Csr g = graph::Csr::build(graph::gen::bipartite_ratings(spec, 3));
  double prev = 1e100;
  for (unsigned rounds : {2u, 4u, 8u}) {
    const auto factors = als_reference(g, spec.users, rounds, 0.05);
    const double rmse = als_rmse(g, spec.users, factors);
    EXPECT_LT(rmse, prev * 1.001);
    prev = rmse;
  }
  EXPECT_LT(prev, 1.0);  // 8 rounds fit 5-star ratings well
}

TEST(Datasets, AllSevenGenerated) {
  DatasetScale scale;
  scale.factor = 0.125;  // keep the test snappy
  const auto all = make_all_datasets(scale);
  ASSERT_EQ(all.size(), 7u);
  EXPECT_EQ(all[0].name, "Amazon");
  EXPECT_EQ(all[4].name, "SYN-GL");
  EXPECT_EQ(all[6].name, "RoadCA");
  for (const auto& d : all) {
    EXPECT_GT(d.edges.num_edges(), 100u) << d.name;
    EXPECT_GT(d.edges.num_vertices(), 10u) << d.name;
    EXPECT_FALSE(d.describe().empty());
  }
  EXPECT_GT(all[4].num_users, 0u);
}

TEST(Datasets, ScaleFactorGrowsGraphs) {
  DatasetScale small;
  small.factor = 0.125;
  DatasetScale large;
  large.factor = 0.5;
  EXPECT_GT(make_gweb(large).edges.num_edges(), make_gweb(small).edges.num_edges());
  EXPECT_GT(make_road_ca(large).edges.num_vertices(),
            make_road_ca(small).edges.num_vertices());
}

TEST(Datasets, KeepPaperEdgeVertexRatios) {
  // The stand-ins should preserve the relative density ordering of the paper
  // datasets: Wiki densest of the web graphs, RoadCA sparsest overall.
  const auto all = make_all_datasets(DatasetScale{0.25, 99});
  auto density = [](const Dataset& d) {
    return static_cast<double>(d.edges.num_edges()) /
           static_cast<double>(d.edges.num_vertices());
  };
  EXPECT_GT(density(all[3]), density(all[1]));  // Wiki > GWeb
  EXPECT_LT(density(all[6]), 5.0);              // road lattice stays sparse
}

}  // namespace
}  // namespace cyclops::algo
