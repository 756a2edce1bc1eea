#pragma once
// Mutation traces — the input format of the streaming ingestion subsystem.
// A trace is a time-ordered sequence of edge add/remove operations; the
// replay drivers (cyclops-cli --ingest, bench_ingest, bench_paper's ING
// panel) feed it through a MutationIngestor, which folds ops into batched
// TopologyDeltas.
//
// Text format (one op per line, '#' comments, blank lines ignored):
//   <at_s> add <src> <dst> [weight]
//   <at_s> remove <src> <dst>
// Timestamps are trace-relative seconds and must be non-decreasing; they
// pace replay and measure mutation->epoch staleness.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "cyclops/common/types.hpp"

namespace cyclops::ingest {

struct MutationOp {
  double at_s = 0;  ///< trace-relative timestamp (non-decreasing)
  bool is_add = true;
  VertexId src = 0;
  VertexId dst = 0;
  double weight = 1.0;
};

/// Parses the text format. Throws graph::LoadError (with byte offset and
/// line) on a malformed line: a missing field, an unknown op, a timestamp
/// that is negative, non-finite or decreasing, a vertex id outside
/// [0, kInvalidVertex), a malformed or non-finite weight, or a trailing token.
[[nodiscard]] std::vector<MutationOp> parse_trace(std::istream& in);

/// Loads and parses a trace file; throws graph::LoadError if it cannot be
/// opened or does not parse.
[[nodiscard]] std::vector<MutationOp> load_trace(const std::string& path);

/// Knobs for deterministic synthetic traces (seeded, wall-clock free).
struct TraceSpec {
  std::size_t ops = 256;
  VertexId num_vertices = 0;  ///< endpoint universe (typically the base graph's)
  double add_fraction = 0.9;  ///< remainder removes previously-added edges
  double ops_per_s = 10000;   ///< timestamp pacing
  bool undirected = false;    ///< stage both directions (CC-style storage)
  std::uint64_t seed = 1;
};

/// Deterministic synthetic trace: adds between random distinct vertices;
/// removes are drawn from the trace's own earlier adds, so removals always
/// hit live edges and affected regions stay local — the "small delta"
/// workload the acceptance bar measures.
[[nodiscard]] std::vector<MutationOp> synth_trace(const TraceSpec& spec);

}  // namespace cyclops::ingest
