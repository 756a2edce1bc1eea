#pragma once
// The evaluation's dataset registry (Table 1), substituted with synthetic
// stand-ins at 1-core-host scale (see DESIGN.md). Name, paper-scale numbers,
// and the generator recipe travel together so benches can print the
// paper-vs-measured context next to every result.

#include <string>
#include <vector>

#include "cyclops/algorithms/catalog.hpp"
#include "cyclops/graph/store.hpp"
#include "cyclops/graph/edge_list.hpp"

namespace cyclops::algo {

struct Dataset {
  std::string name;            ///< paper dataset this stands in for
  Algo workload = Algo::kPageRank;  ///< the algorithm the paper runs on it
  VertexId paper_vertices = 0;
  std::size_t paper_edges = 0;
  graph::EdgeList edges;       ///< generated stand-in
  VertexId num_users = 0;      ///< ALS only: bipartite split point

  [[nodiscard]] std::string describe() const;
};

/// Scale factor for the generated stand-ins; 1.0 is the default benchmark
/// scale (~10-400k edges per graph). Tests use smaller scales.
struct DatasetScale {
  double factor = 1.0;
  std::uint64_t seed = 2014;
};

/// Table 1 rows.
[[nodiscard]] Dataset make_amazon(const DatasetScale& scale = {});
[[nodiscard]] Dataset make_gweb(const DatasetScale& scale = {});
[[nodiscard]] Dataset make_ljournal(const DatasetScale& scale = {});
[[nodiscard]] Dataset make_wiki(const DatasetScale& scale = {});
[[nodiscard]] Dataset make_syn_gl(const DatasetScale& scale = {});
[[nodiscard]] Dataset make_dblp(const DatasetScale& scale = {});
[[nodiscard]] Dataset make_road_ca(const DatasetScale& scale = {});

/// All seven, in the paper's Table 1 order.
[[nodiscard]] std::vector<Dataset> make_all_datasets(const DatasetScale& scale = {});

}  // namespace cyclops::algo
