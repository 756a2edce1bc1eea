#include "cyclops/algorithms/datasets.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "cyclops/graph/generators.hpp"

namespace cyclops::algo {

namespace {
unsigned scaled_scale(unsigned base_scale, double factor) {
  // R-MAT vertex counts move in powers of two; shift by log2(factor).
  const int shift = static_cast<int>(std::lround(std::log2(std::max(factor, 0.01))));
  const int s = std::clamp(static_cast<int>(base_scale) + shift, 6, 24);
  return static_cast<unsigned>(s);
}

std::size_t scaled(std::size_t base, double factor) {
  return std::max<std::size_t>(16, static_cast<std::size_t>(static_cast<double>(base) * factor));
}
}  // namespace

std::string Dataset::describe() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s (paper |V|=%u |E|=%zu; stand-in |V|=%u |E|=%zu)",
                name.c_str(), paper_vertices, paper_edges, edges.num_vertices(),
                edges.num_edges());
  return buf;
}

// The four web/social graphs combine R-MAT degree skew with block-level link
// locality (web_graph generator); edge budgets keep the paper's relative
// |E|/|V| density ordering (Wiki densest).
namespace {
graph::EdgeList make_web(unsigned scale, std::size_t edges, double locality,
                         std::uint64_t seed, double factor) {
  graph::gen::WebSpec spec;
  spec.scale = scaled_scale(scale, factor);
  spec.edges = scaled(edges, factor);
  spec.locality = locality;
  return graph::gen::web_graph(spec, seed);
}
}  // namespace

Dataset make_amazon(const DatasetScale& s) {
  Dataset d;
  d.name = "Amazon";
  d.paper_vertices = 403394;
  d.paper_edges = 3387388;
  d.edges = make_web(13, 75000, 0.80, s.seed + 1, s.factor);  // product co-purchase: high locality
  return d;
}

Dataset make_gweb(const DatasetScale& s) {
  Dataset d;
  d.name = "GWeb";
  d.paper_vertices = 875713;
  d.paper_edges = 5105039;
  d.edges = make_web(14, 110000, 0.75, s.seed + 2, s.factor);  // web: host-level locality
  return d;
}

Dataset make_ljournal(const DatasetScale& s) {
  Dataset d;
  d.name = "LJournal";
  d.paper_vertices = 4847571;
  d.paper_edges = 69993773;
  d.edges = make_web(15, 330000, 0.65, s.seed + 3, s.factor);  // social: weaker locality
  return d;
}

Dataset make_wiki(const DatasetScale& s) {
  Dataset d;
  d.name = "Wiki";
  d.paper_vertices = 5716808;
  d.paper_edges = 130160392;
  d.edges = make_web(16, 760000, 0.65, s.seed + 4, s.factor);
  return d;
}

Dataset make_syn_gl(const DatasetScale& s) {
  Dataset d;
  d.name = "SYN-GL";
  d.workload = Algo::kAls;
  d.paper_vertices = 110000;
  d.paper_edges = 2729572;
  graph::gen::BipartiteSpec spec;
  spec.users = static_cast<VertexId>(scaled(2400, s.factor));
  spec.items = static_cast<VertexId>(scaled(800, s.factor));
  spec.ratings_per_user = 12;
  d.edges = graph::gen::bipartite_ratings(spec, s.seed + 5);
  d.num_users = spec.users;
  return d;
}

Dataset make_dblp(const DatasetScale& s) {
  Dataset d;
  d.name = "DBLP";
  d.workload = Algo::kCd;
  d.paper_vertices = 317080;
  d.paper_edges = 1049866;
  graph::gen::CommunitySpec spec;
  spec.communities = static_cast<VertexId>(scaled(250, s.factor));
  spec.group_size = 40;
  spec.degree = 7;
  spec.p_internal = 0.85;
  d.edges = graph::gen::planted_communities(spec, s.seed + 6);
  return d;
}

Dataset make_road_ca(const DatasetScale& s) {
  Dataset d;
  d.name = "RoadCA";
  d.workload = Algo::kSssp;
  d.paper_vertices = 1965206;
  d.paper_edges = 5533214;
  graph::gen::RoadSpec spec;
  const auto side = static_cast<VertexId>(
      std::max(24.0, 130.0 * std::sqrt(std::max(s.factor, 0.01))));
  spec.rows = side;
  spec.cols = side;
  d.edges = graph::gen::road_grid(spec, s.seed + 7);
  return d;
}

std::vector<Dataset> make_all_datasets(const DatasetScale& scale) {
  std::vector<Dataset> all;
  all.push_back(make_amazon(scale));
  all.push_back(make_gweb(scale));
  all.push_back(make_ljournal(scale));
  all.push_back(make_wiki(scale));
  all.push_back(make_syn_gl(scale));
  all.push_back(make_dblp(scale));
  all.push_back(make_road_ca(scale));
  return all;
}

}  // namespace cyclops::algo
