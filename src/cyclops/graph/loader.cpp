#include "cyclops/graph/loader.hpp"

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

namespace cyclops::graph {

EdgeList load_edge_list(std::istream& in, const LoadOptions& opts) {
  EdgeList edges;
  std::unordered_map<std::uint64_t, VertexId> remap;
  std::uint64_t next_line = 0;  // byte offset of the next line's start
  std::uint64_t this_line = 0;  // byte offset of the current line's start
  std::size_t lineno = 0;
  auto densify = [&](std::uint64_t raw) -> VertexId {
    if (!opts.densify_ids) {
      if (raw > kInvalidVertex - 1) {
        throw LoadError("vertex id overflows 32 bits", this_line, lineno);
      }
      return static_cast<VertexId>(raw);
    }
    auto [it, inserted] = remap.try_emplace(raw, static_cast<VertexId>(remap.size()));
    return it->second;
  };

  std::string line;
  while (std::getline(in, line)) {
    ++lineno;
    this_line = next_line;
    next_line += line.size() + 1;  // getline consumed the '\n' too
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    std::istringstream ls(line);
    std::uint64_t raw_src = 0;
    std::uint64_t raw_dst = 0;
    if (!(ls >> raw_src >> raw_dst)) {
      throw LoadError("malformed edge", this_line, lineno);
    }
    double weight = opts.default_weight;
    // strtod, unlike operator>>, reads "inf" and "nan" and reports overflow
    // as ±HUGE_VAL, so non-finite weights are told apart from non-numbers.
    if (std::string token; ls >> token) {
      char* end = nullptr;
      const double w = std::strtod(token.c_str(), &end);
      if (end != token.c_str() + token.size()) {
        throw LoadError("malformed weight", this_line, lineno);
      }
      if (!std::isfinite(w)) {
        throw LoadError("non-finite weight", this_line, lineno);
      }
      weight = w;
    }
    const VertexId src = densify(raw_src);
    const VertexId dst = densify(raw_dst);
    if (opts.undirected) {
      edges.add_undirected(src, dst, weight);
    } else {
      edges.add(src, dst, weight);
    }
  }
  return edges;
}

EdgeList load_edge_list_file(const std::string& path, const LoadOptions& opts) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open graph file: " + path);
  return load_edge_list(in, opts);
}

void save_edge_list(std::ostream& out, const EdgeList& edges) {
  bool uniform = true;
  for (const Edge& e : edges.edges()) {
    if (e.weight != 1.0) {
      uniform = false;
      break;
    }
  }
  out << "# cyclops edge list: " << edges.num_vertices() << " vertices, "
      << edges.num_edges() << " edges\n";
  for (const Edge& e : edges.edges()) {
    out << e.src << ' ' << e.dst;
    if (!uniform) out << ' ' << e.weight;
    out << '\n';
  }
}

void save_edge_list_file(const std::string& path, const EdgeList& edges) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write graph file: " + path);
  save_edge_list(out, edges);
}

namespace {
constexpr char kMagic[4] = {'C', 'Y', 'G', 'R'};
constexpr std::uint32_t kBinaryVersion = 1;

struct BinaryEdge {
  VertexId src;
  VertexId dst;
  double weight;
};

// Fixed header layout: magic @0, version @4, n @8, m @12, records @20.
constexpr std::uint64_t kVersionOffset = sizeof(kMagic);
constexpr std::uint64_t kCountOffset = kVersionOffset + sizeof(std::uint32_t);
constexpr std::uint64_t kRecordOffset =
    kCountOffset + sizeof(std::uint32_t) + sizeof(std::uint64_t);
}  // namespace

void save_binary_file(const std::string& path, const EdgeList& edges) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot write graph file: " + path);
  out.write(kMagic, sizeof(kMagic));
  const std::uint32_t version = kBinaryVersion;
  const std::uint32_t n = edges.num_vertices();
  const std::uint64_t m = edges.num_edges();
  out.write(reinterpret_cast<const char*>(&version), sizeof(version));
  out.write(reinterpret_cast<const char*>(&n), sizeof(n));
  out.write(reinterpret_cast<const char*>(&m), sizeof(m));
  for (const Edge& e : edges.edges()) {
    const BinaryEdge rec{e.src, e.dst, e.weight};
    out.write(reinterpret_cast<const char*>(&rec), sizeof(rec));
  }
  if (!out) throw std::runtime_error("short write to graph file: " + path);
}

EdgeList load_binary_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open graph file: " + path);
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw LoadError("not a cyclops binary graph: " + path, 0);
  }
  std::uint32_t version = 0;
  std::uint32_t n = 0;
  std::uint64_t m = 0;
  in.read(reinterpret_cast<char*>(&version), sizeof(version));
  if (!in) throw LoadError("truncated binary graph header: " + path, kVersionOffset);
  if (version != kBinaryVersion) {
    throw LoadError("unsupported binary graph version in " + path, kVersionOffset);
  }
  in.read(reinterpret_cast<char*>(&n), sizeof(n));
  in.read(reinterpret_cast<char*>(&m), sizeof(m));
  if (!in) throw LoadError("truncated binary graph header: " + path, kCountOffset);
  EdgeList edges(n);
  edges.edges().reserve(m);
  for (std::uint64_t i = 0; i < m; ++i) {
    const std::uint64_t rec_offset = kRecordOffset + i * sizeof(BinaryEdge);
    BinaryEdge rec;
    in.read(reinterpret_cast<char*>(&rec), sizeof(rec));
    if (!in) throw LoadError("truncated binary graph: " + path, rec_offset);
    if (rec.src >= n || rec.dst >= n) {
      throw LoadError("corrupt binary graph (edge out of range): " + path, rec_offset);
    }
    edges.add(rec.src, rec.dst, rec.weight);
  }
  return edges;
}

}  // namespace cyclops::graph
