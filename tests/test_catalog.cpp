// Tests for the job catalog (algorithms/catalog.hpp): its token vocabulary
// and its support matrix. Its wiring (with_job against hand-built engines) is
// Catalog.WithJobMatchesHandBuiltEngines in the differential harness
// (test_differential.cpp).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cyclops/algorithms/catalog.hpp"
#include "cyclops/graph/csr.hpp"
#include "catalog_job.hpp"

namespace cyclops::algo {
namespace {

constexpr JobParams kParams = test::kCatalogParams;

graph::Csr test_graph() { return graph::Csr::build(test::catalog_graph()); }

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

}  // namespace
}  // namespace cyclops::algo
