// Tests for the streaming ingestion subsystem: MutationIngestor batching
// cadence, DeltaOverlay structural sharing (enumeration equivalence, patch-
// only memory, chaining + compaction), concurrent apply-vs-pinning under the
// schedule explorer, and the incremental-vs-from-scratch equivalence suite —
// every incremental algorithm x engine must be bit-identical (SSSP/CC) or
// within 1e-12 (PageRank at tight epsilon) to a cold run on the final
// snapshot, with the epoch registry staying clean throughout.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "cyclops/algorithms/cc.hpp"
#include "cyclops/algorithms/datasets.hpp"
#include "cyclops/algorithms/pagerank.hpp"
#include "cyclops/algorithms/sssp.hpp"
#include "cyclops/common/sync.hpp"
#include "cyclops/core/engine.hpp"
#include "cyclops/core/mutation.hpp"
#include "cyclops/graph/csr.hpp"
#include "cyclops/graph/delta_overlay.hpp"
#include "cyclops/graph/loader.hpp"
#include "cyclops/ingest/incremental.hpp"
#include "cyclops/ingest/ingestor.hpp"
#include "cyclops/ingest/trace.hpp"
#include "cyclops/partition/hash.hpp"
#include "cyclops/service/snapshot.hpp"
#include "cyclops/sim/sched.hpp"
#include "cyclops/verify/verify.hpp"

namespace cyclops {
namespace {

service::SnapshotConfig small_cfg(bool overlay) {
  service::SnapshotConfig cfg;
  cfg.machines = 2;
  cfg.workers_per_machine = 2;
  cfg.overlay_publish = overlay;
  return cfg;
}

graph::EdgeList base_graph() { return std::move(algo::make_gweb({0.05}).edges); }

/// A trace over the base graph plus a few removals of *base* edges (synthetic
/// traces only remove their own adds), so orphaned-region recovery is
/// genuinely exercised.
std::vector<ingest::MutationOp> equivalence_trace(const graph::GraphStore& g, bool undirected) {
  ingest::TraceSpec spec;
  spec.ops = 96;
  spec.num_vertices = g.num_vertices();
  spec.undirected = undirected;
  spec.seed = 7;
  std::vector<ingest::MutationOp> ops = ingest::synth_trace(spec);
  double at = ops.empty() ? 0.0 : ops.back().at_s;
  graph::AdjCursor cur;
  for (VertexId v = 1; v < g.num_vertices() && v < 40; v += 13) {
    const auto nbrs = g.out_neighbors(v, cur);
    if (nbrs.empty()) continue;
    ops.push_back(ingest::MutationOp{at, /*is_add=*/false, v, nbrs[0].neighbor, 0.0});
    if (undirected) {
      ops.push_back(ingest::MutationOp{at, /*is_add=*/false, nbrs[0].neighbor, v, 0.0});
    }
  }
  return ops;
}

// ---------------------------------------------------------------------------
// Trace parsing: every malformed line is a typed error naming its line

std::vector<ingest::MutationOp> parse(const std::string& text) {
  std::istringstream in(text);
  return ingest::parse_trace(in);
}

TEST(TraceParse, ReadsOpsCommentsAndOptionalWeight) {
  const auto ops = parse("# header\n\n0 add 1 2\n0.5 add 3 4 2.5\n  # note\n1e0 remove 1 2\n"
                         "1 remove 3 4\r\n2\tadd 4294967294 0 -1\n");
  ASSERT_EQ(ops.size(), 5u);
  EXPECT_TRUE(ops[0].is_add);
  EXPECT_EQ(ops[0].weight, 1.0);
  EXPECT_EQ(ops[1].src, 3u);
  EXPECT_EQ(ops[1].weight, 2.5);
  EXPECT_FALSE(ops[2].is_add);
  EXPECT_EQ(ops[2].at_s, 1.0);
  EXPECT_EQ(ops[3].dst, 4u);
  EXPECT_EQ(ops[4].src, kInvalidVertex - 1);
  EXPECT_EQ(ops[4].weight, -1.0);
}

TEST(TraceParse, MalformedLinesThrowLoadErrorWithLineNumber) {
  const char* const bad[] = {
      "0.5 add 1 2 abc",         // malformed weight (streams read it as 0)
      "0.5 add 1 2 inf",         // non-finite weight
      "0.5 add 1 2 nan",         // non-finite weight
      "0.5 add -1 2",            // negative id (streams wrap it to kInvalidVertex)
      "0.5 add 1 -2",            // negative id
      "0.5 add 4294967295 2",    // kInvalidVertex itself
      "0.5 add 4294967296 2",    // overflows 32 bits
      "0.5 add 1x 2",            // trailing characters in an id
      "0.5 add 1 2 3.0 extra",   // trailing token after the weight
      "0.5 remove 1 2 3.0",      // remove takes no weight
      "0.5 add 1 2 # comment",   // comments are whole lines only
      "inf add 1 2",             // non-finite timestamp
      "nan add 1 2",             // non-finite timestamp
      "-0.5 add 1 2",            // negative timestamp
      "0.5s add 1 2",            // malformed timestamp
      "0.5 move 1 2",            // unknown op
      "0.5 add 1",               // missing field
      "0.1 add 1 2\n0.05 add 2 3",  // decreasing timestamp, on line 3
  };
  for (const char* text : bad) {
    const std::string input = std::string("# good line follows\n") + text + "\n";
    const std::uint64_t line = std::string(text).find('\n') == std::string::npos ? 2 : 3;
    try {
      (void)parse(input);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const graph::LoadError& err) {
      EXPECT_EQ(err.line(), line) << text;
      EXPECT_NE(std::string(err.what()).find("line " + std::to_string(line)), std::string::npos)
          << err.what();
    }
  }
}

TEST(TraceParse, UnopenableFileThrowsLoadError) {
  EXPECT_THROW((void)ingest::load_trace(testing::TempDir() + "no-such-trace.txt"),
               graph::LoadError);
}

// ---------------------------------------------------------------------------
// MutationIngestor cadence

TEST(Ingestor, BatchSizeBoundPublishes) {
  service::SnapshotStore store(base_graph(), small_cfg(true));
  ingest::MutationIngestor ing(store, ingest::IngestConfig{4, 1e9});
  std::vector<std::size_t> batch_sizes;
  ing.set_epoch_hook([&](service::Epoch, const core::TopologyDelta& d) {
    batch_sizes.push_back(d.size());
  });
  for (VertexId i = 0; i < 10; ++i) {
    ing.offer(ingest::MutationOp{0.0, true, i, i + 1, 1.0});
  }
  EXPECT_EQ(batch_sizes, (std::vector<std::size_t>{4, 4}));
  EXPECT_EQ(ing.staged(), 2u);
  ing.flush();
  EXPECT_EQ(batch_sizes, (std::vector<std::size_t>{4, 4, 2}));
  EXPECT_EQ(ing.staged(), 0u);
  EXPECT_EQ(ing.stats().ops, 10u);
  EXPECT_EQ(ing.stats().batches, 3u);
  EXPECT_EQ(store.current_epoch(), 3u);
}

TEST(Ingestor, DelayBoundPublishesImmediately) {
  service::SnapshotStore store(base_graph(), small_cfg(true));
  // Zero delay budget: the oldest staged op is always "too stale", so every
  // offer publishes a single-op epoch.
  ingest::MutationIngestor ing(store, ingest::IngestConfig{1024, 0.0});
  for (VertexId i = 0; i < 3; ++i) {
    ing.offer(ingest::MutationOp{0.0, true, i, i + 1, 1.0});
  }
  EXPECT_EQ(ing.stats().batches, 3u);
  EXPECT_EQ(ing.staged(), 0u);
  EXPECT_GE(ing.stats().max_staleness_s, 0.0);
}

TEST(Ingestor, FlushOnEmptyPublishesNothing) {
  service::SnapshotStore store(base_graph(), small_cfg(true));
  ingest::MutationIngestor ing(store, ingest::IngestConfig{});
  const service::Epoch before = store.current_epoch();
  EXPECT_EQ(ing.flush(), before);
  EXPECT_EQ(ing.stats().batches, 0u);
}

// ---------------------------------------------------------------------------
// DeltaOverlay structural sharing

TEST(DeltaOverlay, MatchesFlatRebuild) {
  graph::EdgeList edges = base_graph();
  core::TopologyDelta delta;
  delta.add_edge(3, 900, 2.0);
  delta.add_edge(900, 3, 1.0);
  delta.remove_edge(0, 1);  // may or may not exist; removes are pair-wise
  delta.add_edge(edges.num_vertices(), 5, 1.0);  // grows the vertex set
  graph::AdjCursor cur;
  {
    const graph::Csr probe = graph::Csr::build(edges);
    const auto nbrs = probe.out_neighbors(2, cur);
    if (!nbrs.empty()) delta.remove_edge(2, nbrs[0].neighbor);
  }

  const graph::Csr base = graph::Csr::build(edges);
  const auto canon = delta.canonical();
  const graph::DeltaOverlay overlay(base, canon.adds, canon.removes);
  const graph::Csr flat = graph::Csr::build(delta.applied(edges));

  ASSERT_EQ(overlay.num_vertices(), flat.num_vertices());
  ASSERT_EQ(overlay.num_edges(), flat.num_edges());
  graph::AdjCursor oc, fc;
  for (VertexId v = 0; v < flat.num_vertices(); ++v) {
    EXPECT_EQ(overlay.out_degree(v), flat.out_degree(v)) << "out_degree(" << v << ")";
    EXPECT_EQ(overlay.in_degree(v), flat.in_degree(v)) << "in_degree(" << v << ")";
    const auto a = overlay.out_neighbors(v, oc);
    const auto b = flat.out_neighbors(v, fc);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end())) << "out(" << v << ")";
    const auto ai = overlay.in_neighbors(v, oc);
    const auto bi = flat.in_neighbors(v, fc);
    ASSERT_TRUE(std::equal(ai.begin(), ai.end(), bi.begin(), bi.end())) << "in(" << v << ")";
  }

  // Compaction path: materializing the overlay and re-storing it must give
  // the same graph again.
  const graph::Csr compacted = graph::Csr::build(overlay.materialize());
  ASSERT_EQ(compacted.num_edges(), flat.num_edges());
  for (VertexId v = 0; v < flat.num_vertices(); ++v) {
    const auto a = compacted.out_neighbors(v, oc);
    const auto b = flat.out_neighbors(v, fc);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
  }
}

TEST(DeltaOverlay, UntouchedVertexDelegatesToBaseStorage) {
  graph::EdgeList edges = base_graph();
  const graph::Csr base = graph::Csr::build(edges);
  core::TopologyDelta delta;
  delta.add_edge(1, 2, 1.0);
  const auto canon = delta.canonical();
  const graph::DeltaOverlay overlay(base, canon.adds, canon.removes);
  // Vertex 500 is untouched: the overlay must hand back the base's span —
  // same memory, not a copy. That pointer equality IS structural sharing.
  graph::AdjCursor bc, oc;
  const auto bspan = base.out_neighbors(500, bc);
  const auto ospan = overlay.out_neighbors(500, oc);
  EXPECT_EQ(ospan.data(), bspan.data());
  EXPECT_EQ(ospan.size(), bspan.size());
}

TEST(DeltaOverlay, MemoryIsPatchOnly) {
  graph::EdgeList edges = base_graph();
  const graph::Csr base = graph::Csr::build(edges);
  core::TopologyDelta delta;
  for (VertexId v = 0; v < 8; ++v) delta.add_edge(v, v + 100, 1.0);
  const auto canon = delta.canonical();
  const graph::DeltaOverlay overlay(base, canon.adds, canon.removes);
  const auto base_mem = base.memory().resident_bytes;
  const auto patch_mem = overlay.memory().resident_bytes;
  EXPECT_GT(patch_mem, 0u);
  // o(|E|): an 8-edge patch must cost well under a tenth of the flat store.
  EXPECT_LT(patch_mem * 10, base_mem);
}

TEST(SnapshotStore, OverlayPublishSharesAndChains) {
  service::SnapshotConfig cfg = small_cfg(true);
  service::SnapshotStore store(base_graph(), cfg);
  const service::SnapshotRef base = store.current();
  const auto base_checksum = base->edge_checksum();

  core::TopologyDelta d1;
  d1.add_edge(1, 2, 1.0);
  d1.add_edge(7, 9, 1.0);
  store.apply(d1);
  const service::SnapshotRef e1 = store.current();
  ASSERT_TRUE(e1->is_overlay());
  EXPECT_EQ(e1->base().get(), base.get());
  EXPECT_NE(e1->edge_checksum(), base_checksum);
  EXPECT_EQ(e1->store().num_edges(), base->store().num_edges() + 2);

  core::TopologyDelta d2;
  d2.add_edge(3, 4, 1.0);
  store.apply(d2);
  const service::SnapshotRef e2 = store.current();
  ASSERT_TRUE(e2->is_overlay());
  EXPECT_EQ(e2->overlay()->depth(), 2u);
  EXPECT_EQ(store.stats().overlay_epochs, 2u);

  // Ownership carry-forward: overlay partitions must equal what a flat
  // rebuild would hash-partition to (hash is the default partitioner).
  const graph::Csr flat = graph::Csr::build(e2->edges());
  const auto fresh = partition::HashPartitioner{}.partition(flat, cfg.edge_cut_parts());
  EXPECT_EQ(e2->edge_cut().owners(), fresh.owners());

  // Lazily materialized edge list agrees with replaying both deltas flat.
  graph::EdgeList replay = d2.applied(d1.applied(base->edges()));
  ASSERT_EQ(e2->edges().num_edges(), replay.num_edges());
}

TEST(SnapshotStore, DepthBoundTriggersCompaction) {
  service::SnapshotConfig cfg = small_cfg(true);
  cfg.max_overlay_depth = 2;
  service::SnapshotStore store(base_graph(), cfg);
  for (int i = 0; i < 3; ++i) {
    core::TopologyDelta d;
    d.add_edge(static_cast<VertexId>(i), static_cast<VertexId>(i + 50), 1.0);
    store.apply(d);
  }
  // Epochs 1 and 2 stack overlays; epoch 3 would reach depth 3 and must have
  // compacted to a flat snapshot instead.
  EXPECT_FALSE(store.current()->is_overlay());
  EXPECT_EQ(store.stats().compactions, 1u);
  EXPECT_EQ(store.stats().overlay_epochs, 2u);
}

TEST(SnapshotStore, FractionBoundTriggersCompaction) {
  service::SnapshotConfig cfg = small_cfg(true);
  cfg.compact_overlay_fraction = 0.0;  // any accumulated patch forces a flatten
  service::SnapshotStore store(base_graph(), cfg);
  core::TopologyDelta d1;
  d1.add_edge(0, 9, 1.0);
  store.apply(d1);
  EXPECT_TRUE(store.current()->is_overlay());  // first overlay over a flat base
  core::TopologyDelta d2;
  d2.add_edge(1, 9, 1.0);
  store.apply(d2);
  EXPECT_FALSE(store.current()->is_overlay());
  EXPECT_EQ(store.stats().compactions, 1u);
}

// ---------------------------------------------------------------------------
// Concurrent apply vs pinned jobs (PR-5 schedule explorer)

TEST(IngestConcurrency, PinnedRunsAreScheduleAndPublishInvariant) {
  const std::uint64_t violations_before = verify::EpochRegistry::instance().violations();
  service::SnapshotStore store(base_graph(), small_cfg(true));
  ingest::MutationIngestor ing(store, ingest::IngestConfig{2, 1e9});

  std::vector<double> reference;
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    // Pin the newest epoch, then run against it while the writer publishes
    // more epochs concurrently — the pinned view must not move.
    const service::SnapshotRef snap = store.current();
    Thread writer([&ing, seed] {
      for (VertexId i = 0; i < 6; ++i) {
        ing.offer(ingest::MutationOp{0.0, true, 128 + 16 * static_cast<VertexId>(seed) + i,
                                     7 + i, 1.0});
      }
    });
    core::Config cfg = core::Config::cyclops(2, 2);
    cfg.schedule = std::make_shared<sim::ScheduleExplorer>(seed);
    algo::PageRankCyclops prog;
    core::Engine<algo::PageRankCyclops> engine(snap->store(), snap->edge_cut(), prog, cfg);
    engine.run();
    writer.join();
    const std::vector<double> values = engine.values();
    if (reference.empty()) {
      reference = values;
    } else {
      // Same pinned epoch would give identical values; later epochs pin a
      // *larger* graph, so only assert the schedule-invariance of each run
      // by re-running the same seed's snapshot without concurrent applies.
      core::Engine<algo::PageRankCyclops> again(snap->store(), snap->edge_cut(), prog, cfg);
      again.run();
      EXPECT_EQ(values, again.values()) << "seed " << seed;
    }
  }
  EXPECT_EQ(verify::EpochRegistry::instance().violations(), violations_before);
}

// ---------------------------------------------------------------------------
// Incremental-vs-from-scratch equivalence suite

/// Adds that grow the vertex set past |V| (both directions of 3-n, n-(n+6)
/// and 9-(n+6)): they reach delta-PR's vertex-count branch and rebuild()'s
/// new-vertex initialisation, which the in-range traces never do.
std::vector<ingest::MutationOp> growth_trace(const graph::GraphStore& g) {
  const VertexId n = g.num_vertices();
  std::vector<ingest::MutationOp> ops;
  for (const auto& [u, v] : {std::pair{3u, n}, std::pair{n, n + 6}, std::pair{9u, n + 6}}) {
    ops.push_back(ingest::MutationOp{0.0, /*is_add=*/true, u, v, 1.0});
    ops.push_back(ingest::MutationOp{0.0, /*is_add=*/true, v, u, 1.0});
  }
  return ops;
}

/// Replays the equivalence trace, then (on a fresh store) the growth trace,
/// through the ingestor with an incremental engine attached, and compares
/// each final result with a cold run of the same shell on the final snapshot.
template <typename Program>
void expect_equivalent(Program prog, bool mt) {
  for (const bool growth : {false, true}) {
    SCOPED_TRACE(growth ? "growth trace" : "equivalence trace");
    const std::uint64_t violations_before = verify::EpochRegistry::instance().violations();
    const service::SnapshotConfig cfg = small_cfg(true);
    service::SnapshotStore store(base_graph(), cfg);
    const ingest::IncrementalConfig icfg = ingest::make_incremental_config(cfg, mt, 2, 1, 2000);
    ingest::Incremental<Program> inc(store.current(), prog, icfg);
    inc.cold_run();
    const graph::GraphStore& g = store.current()->store();
    const std::vector<ingest::MutationOp> trace =
        growth ? growth_trace(g)
               : equivalence_trace(g, std::is_same_v<Program, algo::CcCyclops>);
    ingest::MutationIngestor ing(store, ingest::IngestConfig{growth ? 2u : 32u, 1e9});
    ing.set_epoch_hook([&](service::Epoch, const core::TopologyDelta& d) {
      inc.advance(store.current(), d);
    });
    for (const ingest::MutationOp& op : trace) ing.offer(op);
    ing.flush();

    ingest::Incremental<Program> cold(store.current(), prog, icfg);
    cold.cold_run();
    const auto a = inc.values();
    const auto b = cold.values();
    if constexpr (std::is_same_v<Program, algo::PageRankCyclops>) {
      ASSERT_EQ(a.size(), b.size());
      double max_diff = 0;
      for (std::size_t i = 0; i < a.size(); ++i) {
        max_diff = std::max(max_diff, std::abs(a[i] - b[i]));
      }
      EXPECT_LE(max_diff, 1e-12);
      // Each vector's certified L1 distance to the fixpoint of the final
      // snapshot (algo::pagerank_residual). A vertex halts once its own step
      // moves it by at most ε, so ‖x − T(x)‖₁ is of order n·ε and the
      // certificate of order n·ε / (1 − d); allow twice that. (The
      // differential harness's flat 1e4·ε is sized for its ≤ 512-vertex zoo:
      // on these 1024 vertices both vectors certify about 1.006e-11.)
      const auto last = store.current();
      const double bound = 2.0 * static_cast<double>(last->store().num_vertices()) *
                           prog.epsilon / (1.0 - algo::kPageRankDamping);
      EXPECT_LE(algo::pagerank_residual(last->store(), a), bound) << "incremental";
      EXPECT_LE(algo::pagerank_residual(last->store(), b), bound) << "cold";
    } else {
      // SSSP distances are identical path-weight sums and CC labels are
      // exact minima: bit-identical, not just close.
      EXPECT_EQ(a, b);
    }
    EXPECT_EQ(verify::EpochRegistry::instance().violations(), violations_before);
  }
}

// Tight PageRank epsilon: threshold convergence is O(epsilon x rounds)
// accurate, so the 1e-12 equivalence bar needs epsilon well below it.
TEST(IncrementalEquivalence, PageRankCyclops) {
  expect_equivalent(algo::PageRankCyclops{.epsilon = 1e-15}, false);
}
TEST(IncrementalEquivalence, PageRankCyclopsMt) {
  expect_equivalent(algo::PageRankCyclops{.epsilon = 1e-15}, true);
}
TEST(IncrementalEquivalence, SsspCyclops) { expect_equivalent(algo::SsspCyclops{}, false); }
TEST(IncrementalEquivalence, SsspCyclopsMt) { expect_equivalent(algo::SsspCyclops{}, true); }
TEST(IncrementalEquivalence, CcCyclops) { expect_equivalent(algo::CcCyclops{}, false); }
TEST(IncrementalEquivalence, CcCyclopsMt) { expect_equivalent(algo::CcCyclops{}, true); }

// ---------------------------------------------------------------------------
// Incremental helpers

TEST(IncrementalHelpers, KhopOutCoversTheHalo) {
  graph::EdgeList edges(5);
  edges.add(0, 1, 1.0);
  edges.add(1, 2, 1.0);
  edges.add(2, 3, 1.0);
  edges.add(3, 4, 1.0);
  const graph::Csr g = graph::Csr::build(edges);
  const std::vector<VertexId> seeds{0};
  EXPECT_EQ(ingest::khop_out(g, seeds, 0), (std::vector<VertexId>{0}));
  EXPECT_EQ(ingest::khop_out(g, seeds, 2), (std::vector<VertexId>{0, 1, 2}));
  EXPECT_EQ(ingest::khop_out(g, seeds, 9), (std::vector<VertexId>{0, 1, 2, 3, 4}));
}

TEST(IncrementalHelpers, SsspAffectedRegionIsTheOrphanedSubtree) {
  // 0 -> 1 -> 2 -> 3, plus a backup path 0 -> 4 -> 2 of equal total weight 2.
  graph::EdgeList before(5);
  before.add(0, 1, 1.0);
  before.add(1, 2, 1.0);
  before.add(2, 3, 1.0);
  before.add(0, 4, 1.0);
  before.add(4, 2, 1.0);
  const std::vector<double> dist{0, 1, 2, 3, 1};
  core::TopologyDelta delta;
  delta.remove_edge(1, 2);
  const graph::Csr after = graph::Csr::build(delta.applied(before));
  // Removing 1->2 orphans nothing: 4->2 still supports dist[2] == 2.
  EXPECT_TRUE(ingest::sssp_affected_by_removal(after, dist, delta.canonical().removes, 0)
                  .empty());

  core::TopologyDelta both;
  both.remove_edge(1, 2);
  both.remove_edge(4, 2);
  const graph::Csr after2 = graph::Csr::build(both.applied(before));
  // Removing both supports orphans 2 and, transitively, 3 — but not 1 or 4.
  EXPECT_EQ(ingest::sssp_affected_by_removal(after2, dist, both.canonical().removes, 0),
            (std::vector<VertexId>{2, 3}));
}

}  // namespace
}  // namespace cyclops
