// Tests for the distributed immutable view construction (core/layout):
// replica placement, in-edge slot resolution, local out-edges for
// distributed activation, and master->replica sync target inversion.
// Validated both on the paper's Figure 6 example and property-style against
// brute force on random graphs.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <type_traits>

#include "cyclops/graph/csr.hpp"
#include "cyclops/core/layout.hpp"
#include "cyclops/graph/generators.hpp"
#include "cyclops/partition/hash.hpp"
#include "test_util.hpp"

namespace cyclops::core {
namespace {

using test::figure6_graph;
using test::owners;

/// Figure 6 setup: vertices {0,1} on w0, {2,3} on w1, {4,5} on w2.
struct Figure6 {
  graph::Csr g = graph::Csr::build(figure6_graph());
  partition::EdgeCutPartition p = owners({0, 0, 1, 1, 2, 2}, 3);
  Layout layout = build_layout(g, p);
};

TEST(LayoutFigure6, MastersAssigned) {
  Figure6 f;
  ASSERT_EQ(f.layout.workers.size(), 3u);
  EXPECT_EQ(f.layout.workers[0].masters, (std::vector<VertexId>{0, 1}));
  EXPECT_EQ(f.layout.workers[1].masters, (std::vector<VertexId>{2, 3}));
  EXPECT_EQ(f.layout.workers[2].masters, (std::vector<VertexId>{4, 5}));
}

TEST(LayoutFigure6, ReplicaPlacement) {
  Figure6 f;
  // Worker 0 hosts replicas of vertices with out-neighbors {0,1}: 2 (2->1),
  // 3 (3->1). Worker 1 hosts replicas of 0 (0->2), 4 (4->3), 5 (5->2).
  // Worker 2 hosts none (only 4->5, 5->4 internal).
  EXPECT_EQ(f.layout.workers[0].replica_globals, (std::vector<VertexId>{2, 3}));
  EXPECT_EQ(f.layout.workers[1].replica_globals, (std::vector<VertexId>{0, 4, 5}));
  EXPECT_TRUE(f.layout.workers[2].replica_globals.empty());
  EXPECT_EQ(f.layout.total_replicas, 5u);
  EXPECT_NEAR(f.layout.replication_factor(6), 1.0 + 5.0 / 6.0, 1e-12);
}

TEST(LayoutFigure6, ReplicasSortedByOwnerThenId) {
  Figure6 f;
  const WorkerLayout& w1 = f.layout.workers[1];
  // Replica 0 is owned by w0; 4 and 5 by w2 — grouped by owner (§4.1).
  ASSERT_EQ(w1.replica_owner.size(), 3u);
  EXPECT_EQ(w1.replica_owner[0], 0u);
  EXPECT_EQ(w1.replica_owner[1], 2u);
  EXPECT_EQ(w1.replica_owner[2], 2u);
}

TEST(LayoutFigure6, InEdgesResolveToLocalSlots) {
  Figure6 f;
  const WorkerLayout& w1 = f.layout.workers[1];
  // Master 3 (local index 1) has in-neighbors {2, 4}: 2 is the local master
  // at slot 1; 4 is a replica.
  const std::size_t begin = w1.in_offsets[1];
  const std::size_t end = w1.in_offsets[2];
  std::set<VertexId> seen;
  for (std::size_t i = begin; i < end; ++i) {
    seen.insert(w1.slot_global(w1.in_adj[i].slot));
  }
  EXPECT_EQ(seen, (std::set<VertexId>{2, 4}));
}

TEST(LayoutFigure6, LocalOutEdgesForActivation) {
  Figure6 f;
  const WorkerLayout& w1 = f.layout.workers[1];
  // The replica of vertex 5 on w1 must activate local master 2 (edge 5->2).
  Slot rep5 = 0;
  bool found = false;
  for (Slot i = 0; i < w1.num_replicas(); ++i) {
    if (w1.replica_globals[i] == 5) {
      rep5 = w1.num_masters() + i;
      found = true;
    }
  }
  ASSERT_TRUE(found);
  std::set<VertexId> targets;
  for (std::size_t e = w1.lout_offsets[rep5]; e < w1.lout_offsets[rep5 + 1]; ++e) {
    targets.insert(w1.masters[w1.lout_adj[e]]);
  }
  EXPECT_EQ(targets, (std::set<VertexId>{2}));
}

TEST(LayoutFigure6, SyncTargetsInverted) {
  Figure6 f;
  // Master 3 (on w1) has exactly one replica, on w0 — one sync message per
  // superstep, the Figure 6(F) "3:M to replica 3" arrow.
  const WorkerLayout& w1 = f.layout.workers[1];
  const std::uint32_t m3 = f.layout.master_index[3];
  const std::size_t begin = w1.rep_offsets[m3];
  const std::size_t end = w1.rep_offsets[m3 + 1];
  ASSERT_EQ(end - begin, 1u);
  const ReplicaRef ref = w1.rep_targets[begin];
  EXPECT_EQ(ref.worker, 0u);
  EXPECT_EQ(f.layout.workers[0].slot_global(ref.slot), 3u);
}

// ---- Property tests on random graphs. ----

// gtest names each case by the raw bytes of its parameter, so the padding
// is spelled out and zeroed: implicit padding holds stack garbage and would
// give the tests a different name on every run.
struct LayoutCase {
  unsigned scale;
  std::uint32_t pad0 = 0;
  std::size_t edges;
  WorkerId parts;
  std::uint32_t pad1 = 0;
  std::uint64_t seed;
};
static_assert(std::has_unique_object_representations_v<LayoutCase>,
              "LayoutCase must have no implicit padding");

class LayoutProperties : public ::testing::TestWithParam<LayoutCase> {
 protected:
  void SetUp() override {
    const auto& c = GetParam();
    g_ = graph::Csr::build(graph::gen::rmat(c.scale, c.edges, c.seed));
    p_ = partition::HashPartitioner{}.partition(g_, c.parts);
    layout_ = build_layout(g_, p_);
  }
  graph::Csr g_;
  partition::EdgeCutPartition p_;
  Layout layout_;
};

TEST_P(LayoutProperties, EveryVertexIsMasterExactlyOnce) {
  std::vector<int> count(g_.num_vertices(), 0);
  for (WorkerId w = 0; w < layout_.workers.size(); ++w) {
    for (VertexId v : layout_.workers[w].masters) {
      EXPECT_EQ(p_.owner(v), w);
      ++count[v];
    }
  }
  for (VertexId v = 0; v < g_.num_vertices(); ++v) EXPECT_EQ(count[v], 1);
}

TEST_P(LayoutProperties, ReplicaRuleMatchesBruteForce) {
  // replica of v on w iff v has an out-neighbor owned by w != owner(v).
  std::map<std::pair<WorkerId, VertexId>, bool> expected;
  for (VertexId v = 0; v < g_.num_vertices(); ++v) {
    for (const graph::Adj& a : g_.out_neighbors(v)) {
      const WorkerId w = p_.owner(a.neighbor);
      if (w != p_.owner(v)) expected[{w, v}] = true;
    }
  }
  std::size_t actual = 0;
  for (WorkerId w = 0; w < layout_.workers.size(); ++w) {
    for (VertexId v : layout_.workers[w].replica_globals) {
      EXPECT_TRUE(expected.count({w, v})) << "spurious replica of " << v << " on " << w;
      ++actual;
    }
  }
  EXPECT_EQ(actual, expected.size());
  EXPECT_EQ(layout_.total_replicas, expected.size());
}

TEST_P(LayoutProperties, InEdgesCompleteAndCorrect) {
  for (WorkerId w = 0; w < layout_.workers.size(); ++w) {
    const WorkerLayout& wl = layout_.workers[w];
    for (std::uint32_t i = 0; i < wl.num_masters(); ++i) {
      const VertexId v = wl.masters[i];
      std::multiset<VertexId> expected;
      for (const graph::Adj& a : g_.in_neighbors(v)) expected.insert(a.neighbor);
      std::multiset<VertexId> actual;
      for (std::size_t e = wl.in_offsets[i]; e < wl.in_offsets[i + 1]; ++e) {
        actual.insert(wl.slot_global(wl.in_adj[e].slot));
      }
      EXPECT_EQ(actual, expected) << "vertex " << v;
    }
  }
}

TEST_P(LayoutProperties, SyncTargetsMatchReplicas) {
  // Each master's rep_targets must point at exactly its replicas.
  std::size_t total_targets = 0;
  for (WorkerId w = 0; w < layout_.workers.size(); ++w) {
    const WorkerLayout& wl = layout_.workers[w];
    for (std::uint32_t i = 0; i < wl.num_masters(); ++i) {
      for (std::size_t t = wl.rep_offsets[i]; t < wl.rep_offsets[i + 1]; ++t) {
        const ReplicaRef ref = wl.rep_targets[t];
        const WorkerLayout& dest = layout_.workers[ref.worker];
        EXPECT_EQ(dest.slot_global(ref.slot), wl.masters[i]);
        EXPECT_GE(ref.slot, dest.num_masters());  // always a replica slot
        ++total_targets;
      }
    }
  }
  EXPECT_EQ(total_targets, layout_.total_replicas);
}

TEST_P(LayoutProperties, LocalOutEdgesPartitionOutEdges) {
  // Union over workers of each slot's local out-edges must equal the global
  // out-adjacency of the slot's vertex restricted to that worker.
  for (WorkerId w = 0; w < layout_.workers.size(); ++w) {
    const WorkerLayout& wl = layout_.workers[w];
    for (Slot s = 0; s < wl.num_slots(); ++s) {
      const VertexId v = wl.slot_global(s);
      std::multiset<VertexId> expected;
      for (const graph::Adj& a : g_.out_neighbors(v)) {
        if (p_.owner(a.neighbor) == w) expected.insert(a.neighbor);
      }
      std::multiset<VertexId> actual;
      for (std::size_t e = wl.lout_offsets[s]; e < wl.lout_offsets[s + 1]; ++e) {
        actual.insert(wl.masters[wl.lout_adj[e]]);
      }
      EXPECT_EQ(actual, expected);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LayoutProperties,
    ::testing::Values(
        LayoutCase{.scale = 7, .edges = 400, .parts = 2, .seed = 1},
        LayoutCase{.scale = 8, .edges = 1200, .parts = 4, .seed = 2},
        LayoutCase{.scale = 9, .edges = 3000, .parts = 7, .seed = 3},
        LayoutCase{.scale = 8, .edges = 1000, .parts = 16, .seed = 4},
        LayoutCase{.scale = 6, .edges = 150, .parts = 3, .seed = 5}));

TEST(Layout, IngressBreakdownPopulated) {
  Figure6 f;
  EXPECT_GE(f.layout.replicate_s, 0.0);
  EXPECT_GE(f.layout.init_s, 0.0);
}

}  // namespace
}  // namespace cyclops::core
