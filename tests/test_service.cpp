// Tests for the multi-tenant service layer: epoch-versioned snapshot store
// (pinning, retirement, immutability), scheduler admission/backpressure,
// priorities, per-tenant concurrency limits, cancellation, and the
// cross-epoch immutability regression the subsystem exists to guarantee —
// results on a pinned epoch are byte-identical before and after a snapshot
// transition, on every engine.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cyclops/common/thread_pool.hpp"
#include "cyclops/core/mutation.hpp"
#include "cyclops/graph/generators.hpp"
#include "cyclops/service/service.hpp"

namespace cyclops::service {
namespace {

graph::EdgeList test_graph() { return graph::gen::rmat(7, 700, 123); }  // 128 vertices

core::TopologyDelta test_delta() {
  core::TopologyDelta delta;
  delta.add_edge(0, 100, 2.0);
  delta.add_edge(100, 3, 1.5);
  delta.remove_edge(0, 1);
  return delta;
}

ServiceConfig small_config() {
  ServiceConfig cfg;
  cfg.snapshot.machines = 2;
  cfg.snapshot.workers_per_machine = 2;
  cfg.scheduler.workers = 2;
  return cfg;
}

JobSpec spec_for(Algo algo, EngineKind engine, const std::string& tenant = "t0") {
  JobSpec spec;
  spec.algo = algo;
  spec.engine = engine;
  spec.tenant = tenant;
  spec.max_supersteps = 30;
  return spec;
}

// ---- snapshot store ---------------------------------------------------------

TEST(SnapshotStore, PublishesEpochsAndRetiresUnpinned) {
  SnapshotStore store(test_graph(), SnapshotConfig{});
  EXPECT_EQ(store.current_epoch(), 0u);
  EXPECT_EQ(store.live_snapshots(), 1u);

  const auto epoch = store.apply(test_delta());
  EXPECT_EQ(epoch, 1u);
  EXPECT_EQ(store.current_epoch(), 1u);
  // Nothing pinned epoch 0, so its storage is gone.
  EXPECT_EQ(store.live_snapshots(), 1u);
  EXPECT_EQ(store.stats().epochs_published, 2u);
  EXPECT_EQ(store.stats().epochs_retired, 1u);
}

TEST(SnapshotStore, PinnedEpochOutlivesTransition) {
  SnapshotStore store(test_graph(), SnapshotConfig{});
  SnapshotRef pinned = store.current();
  const std::uint32_t crc0 = pinned->edge_checksum();

  store.apply(test_delta());
  EXPECT_EQ(store.live_snapshots(), 2u);  // epoch 0 pinned + epoch 1 current
  EXPECT_EQ(pinned->epoch(), 0u);
  EXPECT_EQ(pinned->edge_checksum(), crc0);  // pinned storage untouched
  EXPECT_NE(store.current()->edge_checksum(), crc0);

  pinned.reset();
  EXPECT_EQ(store.live_snapshots(), 1u);
}

TEST(SnapshotStore, SnapshotPrebuildsAllPartitions) {
  SnapshotConfig cfg;
  cfg.machines = 2;
  cfg.workers_per_machine = 3;
  SnapshotStore store(test_graph(), cfg);
  const auto snap = store.current();
  EXPECT_EQ(snap->edge_cut().num_parts(), 6u);
  EXPECT_EQ(snap->mt_edge_cut().num_parts(), 2u);
  EXPECT_EQ(snap->vertex_cut().num_parts(), 2u);
  EXPECT_GE(snap->build_s(), 0.0);
}

// ---- scheduler --------------------------------------------------------------

TEST(JobScheduler, RunsJobAndReportsStats) {
  Service svc(test_graph(), small_config());
  const auto sub = svc.submit(spec_for(Algo::kPageRank, EngineKind::kCyclops));
  ASSERT_TRUE(sub.accepted);
  svc.scheduler().wait(sub.id);

  const auto stats = svc.scheduler().stats_for(sub.id);
  EXPECT_EQ(stats.outcome, "ok");
  EXPECT_EQ(stats.algo, "pr");
  EXPECT_EQ(stats.engine, "cyclops");
  EXPECT_EQ(stats.epoch, 0u);
  EXPECT_GT(stats.supersteps, 0u);
  EXPECT_GE(stats.finished_s, stats.started_s);

  const auto result = svc.scheduler().result_for(sub.id);
  ASSERT_NE(result, nullptr);
  EXPECT_FALSE(result->payload.empty());
  EXPECT_NE(result->crc, 0u);
}

TEST(JobScheduler, RejectsInvalidSpecsWithReason) {
  Service svc(test_graph(), small_config());
  // GAS has no CC program; ALS needs a bipartite split.
  const auto gas_cc = svc.submit(spec_for(Algo::kCc, EngineKind::kGas));
  EXPECT_FALSE(gas_cc.accepted);
  EXPECT_NE(gas_cc.reason.find("gas engine"), std::string::npos);
  const auto als = svc.submit(spec_for(Algo::kAls, EngineKind::kCyclops));
  EXPECT_FALSE(als.accepted);
  EXPECT_EQ(svc.scheduler().counters().rejected, 2u);
  svc.wait_all();
}

TEST(JobScheduler, BoundedQueueRejectsWithQueueFull) {
  ServiceConfig cfg = small_config();
  cfg.scheduler.max_queue = 2;
  cfg.scheduler.start_paused = true;  // nothing dispatches: queue fills
  Service svc(test_graph(), cfg);
  EXPECT_TRUE(svc.submit(spec_for(Algo::kPageRank, EngineKind::kCyclops)).accepted);
  EXPECT_TRUE(svc.submit(spec_for(Algo::kSssp, EngineKind::kHama)).accepted);
  const auto third = svc.submit(spec_for(Algo::kCc, EngineKind::kCyclops));
  EXPECT_FALSE(third.accepted);
  EXPECT_NE(third.reason.find("queue full"), std::string::npos);
  EXPECT_EQ(svc.scheduler().counters().rejected, 1u);
  svc.scheduler().resume();
  svc.wait_all();
  EXPECT_EQ(svc.scheduler().counters().completed, 2u);
}

TEST(JobScheduler, HigherPriorityDispatchesFirst) {
  ServiceConfig cfg = small_config();
  cfg.scheduler.workers = 1;  // serialize so dispatch order == run order
  cfg.scheduler.start_paused = true;
  Service svc(test_graph(), cfg);
  const auto low = svc.submit(spec_for(Algo::kPageRank, EngineKind::kCyclops, "a"));
  const auto high = svc.submit(spec_for(Algo::kSssp, EngineKind::kCyclops, "b"));
  auto urgent_spec = spec_for(Algo::kCc, EngineKind::kCyclops, "c");
  urgent_spec.priority = 5;
  const auto urgent = svc.submit(urgent_spec);
  svc.scheduler().resume();
  svc.wait_all();

  const auto s_low = svc.scheduler().stats_for(low.id);
  const auto s_high = svc.scheduler().stats_for(high.id);
  const auto s_urgent = svc.scheduler().stats_for(urgent.id);
  EXPECT_LT(s_urgent.started_s, s_low.started_s);   // priority 5 jumps the line
  EXPECT_LT(s_low.started_s, s_high.started_s);     // FIFO within priority 0
}

TEST(JobScheduler, PerTenantLimitPreventsOverlap) {
  ServiceConfig cfg = small_config();
  cfg.scheduler.workers = 4;
  cfg.scheduler.per_tenant_running = 1;
  // Stretch each job with realized wire time so overlap would be visible.
  cfg.scheduler.realize_modeled_factor = 3.0;
  Service svc(test_graph(), cfg);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 3; ++i) {
    ids.push_back(svc.submit(spec_for(Algo::kPageRank, EngineKind::kCyclops)).id);
  }
  svc.wait_all();
  std::vector<metrics::JobStats> runs;
  for (const auto id : ids) runs.push_back(svc.scheduler().stats_for(id));
  std::sort(runs.begin(), runs.end(),
            [](const auto& a, const auto& b) { return a.started_s < b.started_s; });
  for (std::size_t i = 1; i < runs.size(); ++i) {
    EXPECT_GE(runs[i].started_s, runs[i - 1].finished_s)
        << "tenant ran two jobs concurrently despite per_tenant_running=1";
  }
}

TEST(JobScheduler, CancelQueuedButNotRunning) {
  ServiceConfig cfg = small_config();
  cfg.scheduler.start_paused = true;
  Service svc(test_graph(), cfg);
  const auto a = svc.submit(spec_for(Algo::kPageRank, EngineKind::kCyclops));
  const auto b = svc.submit(spec_for(Algo::kSssp, EngineKind::kHama));
  EXPECT_TRUE(svc.scheduler().cancel(b.id));
  EXPECT_EQ(svc.scheduler().stats_for(b.id).outcome, "cancelled");
  svc.scheduler().resume();
  svc.scheduler().wait(a.id);
  EXPECT_FALSE(svc.scheduler().cancel(a.id));  // already finished
  svc.wait_all();
  const auto counters = svc.scheduler().counters();
  EXPECT_EQ(counters.cancelled, 1u);
  EXPECT_EQ(counters.completed, 1u);
}

// ---- immutability regression ------------------------------------------------

// The subsystem's core guarantee: a job pinned to epoch N produces a
// byte-identical result before and after the store publishes epoch N+1 —
// for every engine family. (Run under TSan this also proves the snapshot
// transition shares no mutable state with in-flight jobs.)
TEST(ImmutabilityRegression, PinnedEpochResultsAreByteIdenticalAcrossTransition) {
  const EngineKind engines[] = {EngineKind::kHama, EngineKind::kCyclops,
                                EngineKind::kCyclopsMT, EngineKind::kGas};
  Service svc(test_graph(), small_config());
  const SnapshotRef epoch0 = svc.snapshots().current();

  std::vector<JobResult> before;
  for (const auto engine : engines) {
    const auto sub = svc.submit(spec_for(Algo::kPageRank, engine));
    ASSERT_TRUE(sub.accepted);
    svc.scheduler().wait(sub.id);
    const auto result = svc.scheduler().result_for(sub.id);
    ASSERT_NE(result, nullptr);
    before.push_back(*result);
  }

  // Publish epoch 1 — the PageRank fixpoint genuinely changes with it.
  svc.apply_delta(test_delta());

  for (std::size_t i = 0; i < std::size(engines); ++i) {
    // Re-run pinned to epoch 0: byte-identical to the pre-transition run.
    const auto pinned = svc.submit(spec_for(Algo::kPageRank, engines[i]), epoch0);
    ASSERT_TRUE(pinned.accepted);
    svc.scheduler().wait(pinned.id);
    const auto again = svc.scheduler().result_for(pinned.id);
    ASSERT_NE(again, nullptr);
    EXPECT_EQ(again->payload, before[i].payload)
        << algo::token(engines[i]) << " epoch-0 rerun not byte-identical";
    EXPECT_EQ(again->crc, before[i].crc);
    EXPECT_EQ(svc.scheduler().stats_for(pinned.id).epoch, 0u);

    // And the fresh-epoch run must actually differ (the delta did something).
    const auto fresh = svc.submit(spec_for(Algo::kPageRank, engines[i]));
    ASSERT_TRUE(fresh.accepted);
    svc.scheduler().wait(fresh.id);
    const auto changed = svc.scheduler().result_for(fresh.id);
    ASSERT_NE(changed, nullptr);
    EXPECT_NE(changed->payload, before[i].payload)
        << algo::token(engines[i]) << " ignored the topology delta";
  }
  svc.wait_all();
}

// Jobs racing a snapshot transition: submissions pin whichever epoch is
// current at admission; every job completes against a consistent view.
TEST(ImmutabilityRegression, TransitionConcurrentWithRunningJobs) {
  ServiceConfig cfg = small_config();
  cfg.scheduler.workers = 4;
  Service svc(test_graph(), cfg);
  std::vector<std::uint64_t> ids;
  for (int wave = 0; wave < 3; ++wave) {
    for (int i = 0; i < 4; ++i) {
      const auto sub = svc.submit(
          spec_for(i % 2 ? Algo::kPageRank : Algo::kCc, EngineKind::kCyclops,
                   "tenant-" + std::to_string(i)));
      ASSERT_TRUE(sub.accepted);
      ids.push_back(sub.id);
    }
    core::TopologyDelta delta;
    delta.add_edge(static_cast<VertexId>(wave), static_cast<VertexId>(90 + wave));
    svc.apply_delta(delta);
  }
  svc.wait_all();
  for (const auto id : ids) {
    EXPECT_EQ(svc.scheduler().stats_for(id).outcome, "ok");
  }
  EXPECT_EQ(svc.snapshots().current_epoch(), 3u);
  EXPECT_EQ(svc.scheduler().counters().completed, ids.size());
  // Only the store's own reference should survive the drain.
  EXPECT_EQ(svc.snapshots().live_snapshots(), 1u);
}

}  // namespace
}  // namespace cyclops::service
