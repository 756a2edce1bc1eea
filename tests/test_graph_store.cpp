// GraphStore backend tests: the CompactCsr binary format (golden round-trip,
// varint/delta edge cases, CRC/truncation corruption), the StreamStore's
// paged adjacency, and the loader's recoverable-error contract. The shared
// invariant throughout: every backend presents adjacency bit-identical to
// the Csr it was built from, in the same canonical enumeration order.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "cyclops/graph/compact_csr.hpp"
#include "cyclops/graph/csr.hpp"
#include "cyclops/graph/edge_list.hpp"
#include "cyclops/graph/generators.hpp"
#include "cyclops/graph/loader.hpp"
#include "cyclops/graph/store.hpp"
#include "cyclops/graph/stream_store.hpp"

namespace cyclops::graph {
namespace {

/// Adjacency (both directions), degrees, and counts must match the reference
/// Csr exactly — this is the cross-backend bit-identity contract.
void expect_same_graph(const Csr& want, const GraphStore& got) {
  ASSERT_EQ(want.num_vertices(), got.num_vertices());
  ASSERT_EQ(want.num_edges(), got.num_edges());
  AdjCursor cur;
  for (VertexId v = 0; v < want.num_vertices(); ++v) {
    ASSERT_EQ(want.out_degree(v), got.out_degree(v)) << "out_degree v=" << v;
    ASSERT_EQ(want.in_degree(v), got.in_degree(v)) << "in_degree v=" << v;
    const auto wo = want.out_neighbors(v);
    const auto go = got.out_neighbors(v, cur);
    ASSERT_EQ(std::vector<Adj>(wo.begin(), wo.end()),
              std::vector<Adj>(go.begin(), go.end()))
        << "out adjacency v=" << v;
    const auto wi = want.in_neighbors(v);
    const auto gi = got.in_neighbors(v, cur);
    ASSERT_EQ(std::vector<Adj>(wi.begin(), wi.end()),
              std::vector<Adj>(gi.begin(), gi.end()))
        << "in adjacency v=" << v;
  }
}

/// Canonical enumeration order must also agree edge-for-edge (the partition
/// layer indexes edges by this order).
void expect_same_enumeration(const GraphStore& a, const GraphStore& b) {
  struct E {
    VertexId s, d;
    double w;
    bool operator==(const E&) const = default;
  };
  std::vector<E> ea, eb;
  a.for_each_edge([&](VertexId s, VertexId d, double w) { ea.push_back({s, d, w}); });
  b.for_each_edge([&](VertexId s, VertexId d, double w) { eb.push_back({s, d, w}); });
  EXPECT_EQ(ea.size(), eb.size());
  for (std::size_t i = 0; i < ea.size() && i < eb.size(); ++i) {
    ASSERT_EQ(ea[i], eb[i]) << "edge " << i;
  }
}

std::string temp_path(const char* name) { return ::testing::TempDir() + name; }

std::vector<char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void spit(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// ---------------------------------------------------------------- CompactCsr

TEST(CompactCsr, MatchesCsrOnRmat) {
  const Csr g = Csr::build(gen::rmat(10, 6000, 42));
  const CompactCsr c = CompactCsr::build(g);
  expect_same_graph(g, c);
  expect_same_enumeration(g, c);
}

TEST(CompactCsr, CompressesWeightlessAdjacency) {
  const Csr g = Csr::build(gen::rmat(10, 8000, 7));
  const CompactCsr c = CompactCsr::build(g);
  // Raw adjacency is 16 B/entry/direction; delta-varint should beat that by
  // a wide margin on a weightless power-law graph.
  EXPECT_LT(c.blob_bytes(), 2 * g.num_edges() * sizeof(Adj) / 4);
}

TEST(CompactCsr, ZeroDegreeVertices) {
  EdgeList e(8);  // vertices 4..7 fully isolated, 3 has only in-edges
  e.add(0, 1);
  e.add(1, 2);
  e.add(2, 3);
  const Csr g = Csr::build(e);
  const CompactCsr c = CompactCsr::build(g);
  expect_same_graph(g, c);
  AdjCursor cur;
  EXPECT_TRUE(c.out_neighbors(7, cur).empty());
  EXPECT_TRUE(c.in_neighbors(7, cur).empty());
}

TEST(CompactCsr, MaxIdDeltas) {
  // First-neighbor delta of ~n and a same-list jump of ~n both need
  // multi-byte varints with continuation bits; keep n big enough for that
  // but small enough that the O(n) index arrays stay test-sized.
  const VertexId n = (1u << 20) + 3;
  EdgeList e(n);
  e.add(0, n - 1);
  e.add(0, 1);
  e.add(n - 1, 0);
  e.add(n - 2, n - 1);
  const Csr g = Csr::build(e);
  const CompactCsr c = CompactCsr::build(g);
  expect_same_graph(g, c);
}

TEST(CompactCsr, MultiEdgesKeepOrderAndWeights) {
  EdgeList e(3);  // parallel edges: delta 0 between successive neighbors
  e.add(0, 1, 2.5);
  e.add(0, 1, 3.5);
  e.add(0, 1, 2.5);
  e.add(0, 2, 1.0);
  e.add(1, 2, -4.0);
  const Csr g = Csr::build(e);
  const CompactCsr c = CompactCsr::build(g);
  expect_same_graph(g, c);
}

TEST(CompactCsr, GoldenRoundTrip) {
  const Csr g = Csr::build(gen::erdos_renyi(500, 3000, 99));
  const CompactCsr built = CompactCsr::build(g);
  const std::string path = temp_path("roundtrip.cycs");
  built.save(path);
  const CompactCsr loaded = CompactCsr::load(path);
  expect_same_graph(g, loaded);
  expect_same_enumeration(g, loaded);
  // A mapped store charges the blob to disk, not RAM.
  if (loaded.mapped()) {
    EXPECT_GT(loaded.memory().on_disk_bytes, 0u);
    EXPECT_LT(loaded.memory().resident_bytes, built.memory().resident_bytes);
  }
  std::remove(path.c_str());
}

TEST(CompactCsr, WeightedRoundTrip) {
  EdgeList e(4);
  e.add(0, 1, 0.125);
  e.add(1, 2, 7.75);
  e.add(2, 3, -1.5);
  e.add(3, 0, 1e300);
  const Csr g = Csr::build(e);
  const std::string path = temp_path("weighted.cycs");
  CompactCsr::build(g).save(path);
  expect_same_graph(g, CompactCsr::load(path));
  std::remove(path.c_str());
}

TEST(CompactCsr, LoadRejectsBadMagic) {
  const Csr g = Csr::build(gen::erdos_renyi(50, 200, 1));
  const std::string path = temp_path("badmagic.cycs");
  CompactCsr::build(g).save(path);
  auto bytes = slurp(path);
  bytes[0] ^= 0x5a;
  spit(path, bytes);
  try {
    (void)CompactCsr::load(path);
    FAIL() << "load accepted corrupt magic";
  } catch (const LoadError& err) {
    EXPECT_EQ(err.byte_offset(), 0u);
  }
  std::remove(path.c_str());
}

TEST(CompactCsr, LoadDetectsPayloadCorruption) {
  const Csr g = Csr::build(gen::rmat(9, 3000, 5));
  const std::string path = temp_path("corrupt.cycs");
  CompactCsr::build(g).save(path);
  auto bytes = slurp(path);
  ASSERT_GT(bytes.size(), 256u);
  bytes[bytes.size() / 2] ^= 0xff;  // lands in some section's payload
  spit(path, bytes);
  try {
    (void)CompactCsr::load(path);
    FAIL() << "load accepted a flipped payload byte";
  } catch (const LoadError& err) {
    EXPECT_GT(err.byte_offset(), 0u);  // CRC failure names the section start
    EXPECT_LT(err.byte_offset(), bytes.size());
  }
  std::remove(path.c_str());
}

TEST(CompactCsr, LoadDetectsTruncation) {
  const Csr g = Csr::build(gen::rmat(9, 3000, 6));
  const std::string path = temp_path("trunc.cycs");
  CompactCsr::build(g).save(path);
  auto bytes = slurp(path);
  // Every proper prefix must be rejected with a recoverable error, never a
  // crash. Probe a spread of cut points including a mid-header one.
  for (const std::size_t keep :
       {bytes.size() - 1, bytes.size() / 2, bytes.size() / 4, std::size_t{17}}) {
    spit(path, std::vector<char>(bytes.begin(), bytes.begin() + keep));
    EXPECT_THROW((void)CompactCsr::load(path), LoadError) << "kept " << keep;
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------- StreamStore

StoreOptions stream_opts(std::uint64_t cap_bytes) {
  StoreOptions o;
  o.kind = StoreKind::kStream;
  o.mem_cap_bytes = cap_bytes;
  return o;
}

TEST(StreamStore, MatchesCsrUnderTinyWindows) {
  const Csr g = Csr::build(gen::rmat(10, 9000, 77));
  const StreamStore s(g, stream_opts(1 << 20));
  expect_same_graph(g, s);
  expect_same_enumeration(g, s);
}

TEST(StreamStore, ResidentFootprintExcludesAdjacency) {
  const Csr g = Csr::build(gen::rmat(11, 30000, 3));
  const StreamStore s(g, stream_opts(4 << 20));
  const StoreMemory m = s.memory();
  EXPECT_GT(m.on_disk_bytes, 0u);
  // The point of streaming: resident state is the O(|V|) index, strictly
  // smaller than the full in-memory CSR.
  EXPECT_LT(m.resident_bytes, g.memory().resident_bytes);
  EXPECT_EQ(m.on_disk_bytes, s.file_bytes());
}

TEST(StreamStore, CursorCountsWindowIo) {
  const Csr g = Csr::build(gen::rmat(9, 4000, 21));
  const StreamStore s(g, stream_opts(1 << 20));
  AdjCursor cur;
  for (VertexId v = 0; v < g.num_vertices(); ++v) (void)s.out_neighbors(v, cur);
  EXPECT_GT(cur.window_loads, 0u);
  EXPECT_GT(cur.bytes_read, 0u);
  // Ascending scans reuse windows: far fewer loads than queries.
  EXPECT_LT(cur.window_loads, g.num_vertices());
}

TEST(StreamStore, ExportsMessageBudget) {
  const Csr g = Csr::build(gen::erdos_renyi(100, 400, 8));
  const StreamStore s(g, stream_opts(8 << 20));
  EXPECT_EQ(s.message_budget_bytes(), (8u << 20) / 2);
  EXPECT_EQ(g.message_budget_bytes(), 0u) << "in-memory stores are unbounded";
}

// ---------------------------------------------------------------- make_store

TEST(MakeStore, AllKindsPresentIdenticalAdjacency) {
  const EdgeList e = gen::rmat(9, 2500, 123);
  const Csr want = Csr::build(e);
  for (const StoreKind kind : {StoreKind::kMemory, StoreKind::kCompact, StoreKind::kStream}) {
    StoreOptions o;
    o.kind = kind;
    o.mem_cap_bytes = 1 << 20;
    const auto store = make_store(e, o);
    ASSERT_EQ(store->kind(), kind);
    expect_same_graph(want, *store);
  }
}

TEST(MakeStore, ParseKindRejectsUnknown) {
  EXPECT_EQ(parse_store_kind("memory"), StoreKind::kMemory);
  EXPECT_EQ(parse_store_kind("compact"), StoreKind::kCompact);
  EXPECT_EQ(parse_store_kind("stream"), StoreKind::kStream);
  EXPECT_THROW((void)parse_store_kind("mmap"), std::runtime_error);
}

// ---------------------------------------------------------------- loader

TEST(Loader, MalformedLineReportsOffsetAndLine) {
  std::istringstream in("0 1\n2 not-a-vertex\n");
  try {
    (void)load_edge_list(in);
    FAIL() << "parser accepted garbage";
  } catch (const LoadError& err) {
    EXPECT_EQ(err.line(), 2u);
    EXPECT_GE(err.byte_offset(), 4u);  // past the first line
    EXPECT_NE(std::string(err.what()).find("line 2"), std::string::npos);
  }
}

/// Parses `text` with densify_ids off and expects a LoadError whose message
/// starts with `why`, naming line 3 at byte offset 8 (two 4-byte lines before).
void expect_load_error_on_line3(const std::string& text, const std::string& why) {
  std::istringstream in(text);
  LoadOptions opts;
  opts.densify_ids = false;
  try {
    (void)load_edge_list(in, opts);
    FAIL() << "parser accepted " << text;
  } catch (const LoadError& err) {
    EXPECT_EQ(std::string(err.what()).rfind(why, 0), 0u) << err.what();
    EXPECT_EQ(err.line(), 3u) << err.what();
    EXPECT_EQ(err.byte_offset(), 8u) << err.what();
  }
}

TEST(Loader, VertexIdPast32BitsOverflows) {
  expect_load_error_on_line3("0 1\n1 2\n4294967296 0\n", "vertex id overflows 32 bits");
  expect_load_error_on_line3("0 1\n1 2\n0 4294967296\n", "vertex id overflows 32 bits");
}

TEST(Loader, NonFiniteWeightIsRejected) {
  expect_load_error_on_line3("0 1\n1 2\n2 3 inf\n", "non-finite weight");
  expect_load_error_on_line3("0 1\n1 2\n2 3 -inf\n", "non-finite weight");
  expect_load_error_on_line3("0 1\n1 2\n2 3 nan\n", "non-finite weight");
}

TEST(Loader, NonNumericWeightIsMalformed) {
  expect_load_error_on_line3("0 1\n1 2\n2 3 abc\n", "malformed weight");
}

TEST(Loader, TruncatedBinaryReportsOffset) {
  EdgeList e(10);
  for (VertexId v = 0; v + 1 < 10; ++v) e.add(v, v + 1, 0.5 * v);
  const std::string path = temp_path("trunc.cygr");
  save_binary_file(path, e);
  auto bytes = slurp(path);
  spit(path, std::vector<char>(bytes.begin(), bytes.end() - 7));
  try {
    (void)load_binary_file(path);
    FAIL() << "loader accepted a truncated record";
  } catch (const LoadError& err) {
    EXPECT_GT(err.byte_offset(), 0u);
    EXPECT_EQ(err.line(), 0u) << "binary errors carry no line number";
  }
  std::remove(path.c_str());
}

TEST(Loader, BinaryMagicMismatchReportsOffsetZero) {
  EdgeList e(2);
  e.add(0, 1);
  const std::string path = temp_path("badmagic.cygr");
  save_binary_file(path, e);
  auto bytes = slurp(path);
  bytes[1] ^= 0x40;
  spit(path, bytes);
  try {
    (void)load_binary_file(path);
    FAIL() << "loader accepted a bad magic";
  } catch (const LoadError& err) {
    EXPECT_EQ(err.byte_offset(), 0u);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cyclops::graph
