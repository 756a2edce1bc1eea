#include "cyclops/ingest/trace.hpp"

#include <charconv>
#include <cmath>
#include <fstream>
#include <random>
#include <sstream>
#include <string>

#include "cyclops/common/check.hpp"
#include "cyclops/graph/loader.hpp"

namespace cyclops::ingest {

namespace {

// Whole-token numeric parse: from_chars rejects signs on unsigned types,
// out-of-range values and trailing characters, which stream extraction would
// wrap, clamp or leave unread.
template <class T>
bool parse_token(const std::string& tok, T& out) {
  const char* end = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), end, out);
  return ec == std::errc{} && ptr == end;
}

}  // namespace

std::vector<MutationOp> parse_trace(std::istream& in) {
  std::vector<MutationOp> ops;
  std::string line;
  std::uint64_t line_begin = 0;  // byte offset of the current line's start
  std::size_t lineno = 0;
  double prev_at = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::uint64_t this_line = line_begin;
    line_begin += line.size() + 1;  // getline consumed the '\n' too
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    const auto fail = [&](const std::string& why) {
      return graph::LoadError("trace: " + why, this_line, lineno);
    };
    std::istringstream ls(line);
    std::string at, verb, src, dst;
    if (!(ls >> at >> verb >> src >> dst)) {
      throw fail("expected '<at_s> add|remove <src> <dst> [weight]'");
    }
    MutationOp op;
    if (!parse_token(at, op.at_s) || !std::isfinite(op.at_s) || op.at_s < 0) {
      throw fail("timestamp '" + at + "' is not a finite non-negative number");
    }
    if (verb == "add") {
      op.is_add = true;
    } else if (verb == "remove") {
      op.is_add = false;
    } else {
      throw fail("unknown op '" + verb + "'");
    }
    const auto vertex = [&](const std::string& tok) {
      VertexId id = 0;
      if (!parse_token(tok, id) || id == kInvalidVertex) {
        throw fail("vertex id '" + tok + "' is not in [0, " + std::to_string(kInvalidVertex) +
                   ")");
      }
      return id;
    };
    op.src = vertex(src);
    op.dst = vertex(dst);
    std::string extra;
    if (op.is_add && ls >> extra) {  // optional weight; stays 1.0 when absent
      if (!parse_token(extra, op.weight) || !std::isfinite(op.weight)) {
        throw fail("weight '" + extra + "' is not a finite number");
      }
    }
    if (ls >> extra) throw fail("unexpected trailing token '" + extra + "'");
    if (op.at_s < prev_at) throw fail("timestamps must be non-decreasing");
    prev_at = op.at_s;
    ops.push_back(op);
  }
  return ops;
}

std::vector<MutationOp> load_trace(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) throw graph::LoadError("cannot open trace file: " + path, 0);
  return parse_trace(in);
}

std::vector<MutationOp> synth_trace(const TraceSpec& spec) {
  CYCLOPS_CHECK(spec.num_vertices >= 2);
  std::mt19937_64 rng(spec.seed);
  std::uniform_int_distribution<VertexId> pick(0, spec.num_vertices - 1);
  std::uniform_real_distribution<double> coin(0.0, 1.0);

  std::vector<MutationOp> ops;
  ops.reserve(spec.undirected ? 2 * spec.ops : spec.ops);
  std::vector<std::pair<VertexId, VertexId>> added;  // removal pool
  double at = 0;
  const double dt = spec.ops_per_s > 0 ? 1.0 / spec.ops_per_s : 0.0;
  for (std::size_t i = 0; i < spec.ops; ++i, at += dt) {
    if (!added.empty() && coin(rng) >= spec.add_fraction) {
      std::uniform_int_distribution<std::size_t> slot(0, added.size() - 1);
      const std::size_t s = slot(rng);
      const auto [u, v] = added[s];
      added[s] = added.back();
      added.pop_back();
      ops.push_back(MutationOp{at, /*is_add=*/false, u, v, 0.0});
      if (spec.undirected) ops.push_back(MutationOp{at, /*is_add=*/false, v, u, 0.0});
    } else {
      VertexId u = pick(rng);
      VertexId v = pick(rng);
      while (v == u) v = pick(rng);
      added.emplace_back(u, v);
      ops.push_back(MutationOp{at, /*is_add=*/true, u, v, 1.0});
      if (spec.undirected) ops.push_back(MutationOp{at, /*is_add=*/true, v, u, 1.0});
    }
  }
  return ops;
}

}  // namespace cyclops::ingest
