#pragma once
// The job the catalog tests run, defined once: a bipartite ratings graph on
// which every algorithm in the catalog can run, and parameters valid on it.

#include "cyclops/algorithms/catalog.hpp"
#include "cyclops/graph/edge_list.hpp"
#include "cyclops/graph/generators.hpp"

namespace cyclops::test {

inline constexpr algo::JobParams kCatalogParams{
    .epsilon = 1e-9, .source = 1, .num_users = 48, .rounds = 4};

inline graph::EdgeList catalog_graph() {
  return graph::gen::bipartite_ratings({kCatalogParams.num_users, 16, 4}, 7);
}

}  // namespace cyclops::test
