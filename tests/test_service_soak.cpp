// Soak test for the service layer (ctest label: slow). Hammers the scheduler
// with a sustained mixed workload across tenants while topology deltas commit
// concurrently, then checks the system drained clean: every admitted job
// reached "ok", counters balance, and all retired epochs actually released
// their storage. Excluded from the sanitizer CI jobs (-LE slow); the default
// job runs it under the normal test timeout.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cyclops/core/mutation.hpp"
#include "cyclops/graph/generators.hpp"
#include "cyclops/service/service.hpp"

namespace cyclops::service {
namespace {

TEST(ServiceSoak, MixedWorkloadWithConcurrentMutations) {
  constexpr int kWaves = 12;
  constexpr int kJobsPerWave = 8;

  ServiceConfig cfg;
  cfg.snapshot.machines = 2;
  cfg.snapshot.workers_per_machine = 2;
  cfg.scheduler.workers = 4;
  cfg.scheduler.max_queue = kWaves * kJobsPerWave;
  cfg.scheduler.per_tenant_running = 2;
  Service svc(graph::gen::rmat(8, 1400, 99), cfg);

  const Algo algos[] = {Algo::kPageRank, Algo::kSssp, Algo::kCc};
  const EngineKind engines[] = {EngineKind::kHama, EngineKind::kCyclops,
                                EngineKind::kCyclopsMT, EngineKind::kGas};
  std::vector<std::uint64_t> ids;
  std::uint64_t skipped = 0;
  for (int wave = 0; wave < kWaves; ++wave) {
    for (int i = 0; i < kJobsPerWave; ++i) {
      JobSpec spec;
      spec.algo = algos[(wave + i) % std::size(algos)];
      spec.engine = engines[i % std::size(engines)];
      spec.tenant = "tenant-" + std::to_string(i % 4);
      spec.max_supersteps = 25;
      const auto sub = svc.submit(spec);
      if (!sub.accepted) {
        // Only the gas/cc combination is invalid in this mix.
        EXPECT_NE(sub.reason.find("gas engine"), std::string::npos) << sub.reason;
        ++skipped;
        continue;
      }
      ids.push_back(sub.id);
    }
    // Every wave rewires a couple of edges: a new epoch publishes while the
    // previous wave's jobs are still running against older ones.
    core::TopologyDelta delta;
    delta.add_edge(static_cast<VertexId>(wave * 2), static_cast<VertexId>(200 + wave));
    delta.remove_edge(static_cast<VertexId>(wave), static_cast<VertexId>(wave + 1));
    svc.apply_delta(delta);
  }
  svc.wait_all();

  for (const auto id : ids) {
    EXPECT_EQ(svc.scheduler().stats_for(id).outcome, "ok") << "job " << id;
  }
  const auto counters = svc.scheduler().counters();
  EXPECT_EQ(counters.accepted, ids.size());
  EXPECT_EQ(counters.completed, ids.size());
  EXPECT_EQ(counters.failed, 0u);
  EXPECT_EQ(counters.rejected, skipped);

  const auto snap = svc.snapshots().stats();
  EXPECT_EQ(snap.epochs_published, static_cast<std::uint64_t>(kWaves) + 1);
  // Drained: only the store's current snapshot still holds storage.
  EXPECT_EQ(svc.snapshots().live_snapshots(), 1u);
  EXPECT_EQ(svc.snapshots().current_epoch(), static_cast<Epoch>(kWaves));
}

}  // namespace
}  // namespace cyclops::service
