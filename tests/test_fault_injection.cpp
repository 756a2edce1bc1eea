// Fault-injection fabric + automated recovery runtime tests: CRC32 known
// answers, deterministic fault schedules (identical seed -> identical faults,
// identical RecoveryStats, bit-identical results), absorbed wire faults
// (drops/corruption cost time but never change results), straggler delay,
// durable checkpoint stores, and fully automated crash recovery through
// runtime::run_with_recovery for all three engines.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>

#include "cyclops/graph/csr.hpp"
#include "cyclops/algorithms/pagerank.hpp"
#include "cyclops/algorithms/sssp.hpp"
#include "cyclops/bsp/engine.hpp"
#include "cyclops/common/crc32.hpp"
#include "cyclops/core/engine.hpp"
#include "cyclops/gas/engine.hpp"
#include "cyclops/graph/generators.hpp"
#include "cyclops/partition/vertex_cut.hpp"
#include "cyclops/runtime/recovery.hpp"
#include "test_util.hpp"

namespace cyclops {
namespace {

TEST(Crc32, KnownAnswers) {
  EXPECT_EQ(crc32({}), 0u);
  const std::uint8_t check[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32(check), 0xCBF43926u);  // the classic CRC-32/IEEE check value
  const std::uint8_t a[] = {0x00};
  const std::uint8_t b[] = {0x01};
  EXPECT_NE(crc32(a), crc32(b));
}

TEST(FaultInjector, IdenticalSeedsYieldIdenticalSchedules) {
  sim::FaultPlan plan;
  plan.seed = 42;
  plan.drop_rate = 0.3;
  plan.corrupt_rate = 0.2;
  auto schedule = [&plan] {
    sim::FaultInjector inj(plan);
    std::vector<int> events;
    for (Superstep s = 0; s < 6; ++s) {
      inj.begin_superstep(s);
      inj.begin_exchange();
      for (WorkerId from = 0; from < 4; ++from) {
        for (WorkerId to = 0; to < 4; ++to) {
          events.push_back(inj.roll_drop(from, to) ? 1 : 0);
          const auto flip = inj.roll_corrupt(from, to, 1024);
          events.push_back(flip ? static_cast<int>(flip->byte_index) : -1);
        }
      }
    }
    return events;
  };
  EXPECT_EQ(schedule(), schedule());

  sim::FaultPlan other = plan;
  other.seed = 43;
  sim::FaultInjector inj_a(plan), inj_b(other);
  inj_a.begin_superstep(0);
  inj_b.begin_superstep(0);
  inj_a.begin_exchange();
  inj_b.begin_exchange();
  std::vector<int> ea, eb;
  for (WorkerId from = 0; from < 8; ++from) {
    for (WorkerId to = 0; to < 8; ++to) {
      ea.push_back(inj_a.roll_drop(from, to) ? 1 : 0);
      eb.push_back(inj_b.roll_drop(from, to) ? 1 : 0);
    }
  }
  EXPECT_NE(ea, eb);  // different seed, different schedule
}

TEST(FaultInjector, CrashFiresExactlyOnce) {
  sim::FaultPlan plan;
  plan.crash_at = 3;
  plan.crash_machine = 1;
  sim::FaultInjector inj(plan);
  for (Superstep s = 0; s < 3; ++s) {
    inj.begin_superstep(s);
    inj.begin_exchange();
    EXPECT_EQ(inj.crash_now(), sim::kNoMachine) << "superstep " << s;
  }
  inj.begin_superstep(3);
  inj.begin_exchange();
  EXPECT_EQ(inj.crash_now(), 1u);  // returns the dying machine
  // Replay of the same superstep after recovery: one-shot, does not re-fire.
  inj.begin_superstep(3);
  inj.begin_exchange();
  EXPECT_EQ(inj.crash_now(), sim::kNoMachine);
  EXPECT_EQ(inj.stats().crashes, 1u);
}

TEST(FaultInjector, SecondCrashFiresIndependently) {
  sim::FaultPlan plan;
  plan.crash_at = 3;
  plan.crash_machine = 1;
  plan.crash2_at = 5;
  plan.crash2_machine = 2;
  sim::FaultInjector inj(plan);
  inj.begin_superstep(3);
  inj.begin_exchange();
  EXPECT_EQ(inj.crash_now(), 1u);
  // Replay passes superstep 3 again without re-firing, then hits crash2.
  inj.begin_superstep(3);
  inj.begin_exchange();
  EXPECT_EQ(inj.crash_now(), sim::kNoMachine);
  inj.begin_superstep(4);
  inj.begin_exchange();
  EXPECT_EQ(inj.crash_now(), sim::kNoMachine);
  inj.begin_superstep(5);
  inj.begin_exchange();
  EXPECT_EQ(inj.crash_now(), 2u);
  inj.begin_superstep(5);
  inj.begin_exchange();
  EXPECT_EQ(inj.crash_now(), sim::kNoMachine);
  EXPECT_EQ(inj.stats().crashes, 2u);
}

// Drops and corruption are absorbed by modeled retransmission: results stay
// bit-identical to the fault-free run, but FaultStats count the events and
// modeled time goes up.
TEST(WireFaults, DropsAndCorruptionAreAbsorbed) {
  const graph::Csr g = graph::Csr::build(graph::gen::rmat(9, 4000, 11));
  const auto part = test::hash_partition(g, 4);
  algo::PageRankBsp pr;
  pr.epsilon = 1e-10;
  bsp::Config clean_cfg = bsp::Config::workers(4);
  clean_cfg.max_supersteps = 40;

  bsp::Engine<algo::PageRankBsp> clean(g, part, pr, clean_cfg);
  const auto clean_stats = clean.run();

  sim::FaultPlan plan;
  plan.seed = 7;
  plan.drop_rate = 0.25;
  plan.corrupt_rate = 0.15;
  bsp::Config faulty_cfg = clean_cfg;
  faulty_cfg.faults = std::make_shared<sim::FaultInjector>(plan);
  bsp::Engine<algo::PageRankBsp> faulty(g, part, pr, faulty_cfg);
  const auto faulty_stats = faulty.run();

  // Bit-identical results despite the faulty wire.
  ASSERT_EQ(faulty.values().size(), clean.values().size());
  for (std::size_t i = 0; i < clean.values().size(); ++i) {
    EXPECT_EQ(faulty.values()[i], clean.values()[i]) << "vertex " << i;
  }

  const sim::FaultStats& fs = faulty_cfg.faults->stats();
  EXPECT_GT(fs.dropped_packages, 0u);
  EXPECT_GT(fs.corrupted_packages, 0u);
  EXPECT_EQ(fs.retransmissions, fs.dropped_packages + fs.corrupted_packages);
  EXPECT_GT(fs.modeled_fault_overhead_s, 0.0);

  // The retransmissions are charged through the cost model: same superstep
  // count, strictly more modeled communication time.
  ASSERT_EQ(faulty_stats.supersteps.size(), clean_stats.supersteps.size());
  EXPECT_GT(faulty_stats.modeled_comm_total_s(), clean_stats.modeled_comm_total_s());
}

TEST(WireFaults, StragglerStretchesModeledCommTime) {
  const graph::Csr g = graph::Csr::build(graph::gen::rmat(9, 4000, 13));
  const auto part = test::hash_partition(g, 4);
  algo::PageRankCyclops pr;
  pr.epsilon = 1e-10;
  core::Config clean_cfg = core::Config::cyclops(4, 1);
  clean_cfg.max_supersteps = 30;
  core::Engine<algo::PageRankCyclops> clean(g, part, pr, clean_cfg);
  const auto clean_stats = clean.run();

  sim::FaultPlan plan;
  plan.straggler_machine = 2;
  plan.straggler_delay_us = 500.0;
  core::Config slow_cfg = clean_cfg;
  slow_cfg.faults = std::make_shared<sim::FaultInjector>(plan);
  core::Engine<algo::PageRankCyclops> slow(g, part, pr, slow_cfg);
  const auto slow_stats = slow.run();

  ASSERT_EQ(slow_stats.supersteps.size(), clean_stats.supersteps.size());
  EXPECT_GT(slow_stats.modeled_comm_total_s(), clean_stats.modeled_comm_total_s());
  EXPECT_GT(slow_cfg.faults->stats().modeled_fault_overhead_s, 0.0);
  // Results are unaffected: slow is not wrong.
  for (std::size_t i = 0; i < clean.values().size(); ++i) {
    ASSERT_EQ(slow.values()[i], clean.values()[i]);
  }
}

TEST(CheckpointStore, FileStoreRoundTripsAndPrunes) {
  const std::string dir = ::testing::TempDir();
  runtime::FileCheckpointStore store(dir);
  EXPECT_FALSE(store.latest().has_value());

  store.put(4, runtime::seal_snapshot({1, 2, 3, 4}));
  store.put(8, runtime::seal_snapshot({5, 6, 7, 8, 9}));
  const auto latest = store.latest();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->first, 8u);
  EXPECT_EQ(runtime::open_snapshot(latest->second),
            (std::vector<std::uint8_t>{5, 6, 7, 8, 9}));
  // The superseded snapshot file was pruned.
  std::ifstream old_file(store.path_for(4), std::ios::binary);
  EXPECT_FALSE(old_file.good());
  std::remove(store.path_for(8).c_str());
}

TEST(CheckpointStore, ManagerRejectsCorruptFrame) {
  runtime::MemoryCheckpointStore store;
  runtime::CheckpointManager manager(2, runtime::CheckpointMode::kLightweight, &store);
  manager.commit(2, {10, 20, 30, 40});
  EXPECT_EQ(manager.checkpoints_taken(), 1u);
  EXPECT_EQ(manager.last_checkpoint_bytes(), 4u);

  auto sealed = store.latest();
  ASSERT_TRUE(sealed.has_value());
  sealed->second[sealed->second.size() - 2] ^= 0x40;  // flip a payload bit at rest
  store.put(2, sealed->second);
  EXPECT_THROW((void)manager.load_latest(), SerializeError);
}

// --- Automated crash recovery: no manual save/restore anywhere below. The
// run_with_recovery loop checkpoints periodically, catches the injected
// FaultError, rolls back, replays, and the final values are bit-identical to
// a fault-free run. ---

template <typename Values>
void expect_bit_identical(const Values& got, const Values& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "vertex " << i;
  }
}

TEST(AutoRecovery, BspPageRankRecoversFromCrash) {
  const graph::Csr g = graph::Csr::build(graph::gen::rmat(8, 1600, 2014));
  const auto part = test::hash_partition(g, 4);
  algo::PageRankBsp pr;
  pr.epsilon = 1e-11;
  bsp::Config cfg = bsp::Config::workers(4);
  cfg.max_supersteps = 200;

  bsp::Engine<algo::PageRankBsp> clean(g, part, pr, cfg);
  (void)clean.run();

  sim::FaultPlan plan;
  plan.crash_at = 10;
  plan.crash_machine = 2;
  bsp::Config faulty = cfg;
  faulty.faults = std::make_shared<sim::FaultInjector>(plan);

  runtime::RecoveryOptions opts;
  opts.checkpoint_every = 3;
  opts.mode = runtime::CheckpointMode::kHeavyweight;
  auto outcome = runtime::run_with_recovery(
      [&] {
        return std::make_unique<bsp::Engine<algo::PageRankBsp>>(g, part, pr, faulty);
      },
      opts);

  EXPECT_EQ(outcome.recovery.faults_detected, 1u);
  EXPECT_EQ(outcome.recovery.recoveries, 1u);
  // Checkpoints land at boundaries 3, 6, 9; the crash in superstep 10 loses
  // exactly the one superstep past the newest snapshot.
  EXPECT_EQ(outcome.recovery.lost_supersteps, 1u);
  EXPECT_GT(outcome.recovery.checkpoints_taken, 0u);
  EXPECT_GT(outcome.recovery.modeled_recovery_s, 0.0);
  expect_bit_identical(outcome.engine->values(), clean.values());
}

TEST(AutoRecovery, CyclopsPageRankRecoversFromCrash) {
  const graph::Csr g = graph::Csr::build(graph::gen::rmat(8, 1600, 2014));
  const auto part = test::hash_partition(g, 4);
  algo::PageRankCyclops pr;
  pr.epsilon = 1e-11;
  core::Config cfg = core::Config::cyclops(4, 1);
  cfg.max_supersteps = 200;

  core::Engine<algo::PageRankCyclops> clean(g, part, pr, cfg);
  (void)clean.run();
  const auto want = clean.values();

  sim::FaultPlan plan;
  plan.crash_at = 11;
  plan.crash_machine = 0;
  core::Config faulty = cfg;
  faulty.faults = std::make_shared<sim::FaultInjector>(plan);

  runtime::RecoveryOptions opts;
  opts.checkpoint_every = 4;
  auto outcome = runtime::run_with_recovery(
      [&] {
        return std::make_unique<core::Engine<algo::PageRankCyclops>>(g, part, pr,
                                                                     faulty);
      },
      opts);

  EXPECT_EQ(outcome.recovery.recoveries, 1u);
  EXPECT_EQ(outcome.recovery.lost_supersteps, 11u - 8u);  // rolled back to ckpt@8
  EXPECT_TRUE(outcome.engine->replicas_consistent());
  expect_bit_identical(outcome.engine->values(), want);
}

TEST(AutoRecovery, CyclopsSsspRecoversFromCrash) {
  graph::gen::RoadSpec spec;
  spec.rows = 14;
  spec.cols = 14;
  const graph::Csr g = graph::Csr::build(graph::gen::road_grid(spec, 3));
  const auto part = test::hash_partition(g, 3);
  algo::SsspCyclops sssp;
  sssp.source = 0;
  core::Config cfg = core::Config::cyclops(3, 1);
  cfg.max_supersteps = 400;

  core::Engine<algo::SsspCyclops> clean(g, part, sssp, cfg);
  (void)clean.run();
  const auto want = clean.values();

  sim::FaultPlan plan;
  plan.crash_at = 7;
  core::Config faulty = cfg;
  faulty.faults = std::make_shared<sim::FaultInjector>(plan);
  runtime::RecoveryOptions opts;
  opts.checkpoint_every = 5;
  auto outcome = runtime::run_with_recovery(
      [&] {
        return std::make_unique<core::Engine<algo::SsspCyclops>>(g, part, sssp, faulty);
      },
      opts);
  EXPECT_EQ(outcome.recovery.recoveries, 1u);
  expect_bit_identical(outcome.engine->values(), want);
}

TEST(AutoRecovery, BspSsspRecoversFromCrash) {
  graph::gen::RoadSpec spec;
  spec.rows = 14;
  spec.cols = 14;
  const graph::Csr g = graph::Csr::build(graph::gen::road_grid(spec, 3));
  const auto part = test::hash_partition(g, 3);
  algo::SsspBsp sssp;
  sssp.source = 0;
  bsp::Config cfg = bsp::Config::workers(3);
  cfg.max_supersteps = 400;

  bsp::Engine<algo::SsspBsp> clean(g, part, sssp, cfg);
  (void)clean.run();

  sim::FaultPlan plan;
  plan.crash_at = 6;
  bsp::Config faulty = cfg;
  faulty.faults = std::make_shared<sim::FaultInjector>(plan);
  runtime::RecoveryOptions opts;
  opts.checkpoint_every = 4;
  opts.mode = runtime::CheckpointMode::kHeavyweight;
  auto outcome = runtime::run_with_recovery(
      [&] { return std::make_unique<bsp::Engine<algo::SsspBsp>>(g, part, sssp, faulty); },
      opts);
  EXPECT_EQ(outcome.recovery.recoveries, 1u);
  expect_bit_identical(outcome.engine->values(),
                       std::span<const double>(clean.values()));
}

TEST(AutoRecovery, GasPageRankRecoversFromCrash) {
  const graph::EdgeList e = graph::gen::rmat(8, 1600, 2014);
  const graph::Csr g = graph::Csr::build(e);
  const auto part = partition::RandomVertexCut{}.partition(g, 4);
  algo::PageRankGas pr;
  pr.num_vertices = e.num_vertices();
  pr.epsilon = 1e-11;
  gas::Config cfg = gas::Config::workers(4);
  cfg.max_iterations = 200;

  gas::Engine<algo::PageRankGas> clean(g, part, pr, cfg);
  (void)clean.run();
  const auto want = clean.values();

  sim::FaultPlan plan;
  plan.crash_at = 10;
  gas::Config faulty = cfg;
  faulty.faults = std::make_shared<sim::FaultInjector>(plan);
  runtime::RecoveryOptions opts;
  opts.checkpoint_every = 4;
  auto outcome = runtime::run_with_recovery(
      [&] {
        return std::make_unique<gas::Engine<algo::PageRankGas>>(g, part, pr, faulty);
      },
      opts);
  EXPECT_EQ(outcome.recovery.recoveries, 1u);
  const auto got = outcome.engine->values();
  ASSERT_EQ(got.size(), want.size());
  for (VertexId v = 0; v < got.size(); ++v) {
    EXPECT_EQ(got[v].rank, want[v].rank) << "vertex " << v;
  }
}

TEST(AutoRecovery, GasSsspRecoversFromCrash) {
  const graph::EdgeList e = graph::gen::rmat(8, 1600, 99);
  const graph::Csr g = graph::Csr::build(e);
  const auto part = partition::RandomVertexCut{}.partition(g, 3);
  algo::SsspGas sssp;
  sssp.source = 0;
  gas::Config cfg = gas::Config::workers(3);
  cfg.max_iterations = 200;

  gas::Engine<algo::SsspGas> clean(g, part, sssp, cfg);
  (void)clean.run();
  const auto want = clean.values();
  // Sanity: the GAS SSSP formulation matches Dijkstra.
  const auto reference = algo::sssp_reference(g, 0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (std::isinf(reference[v])) {
      ASSERT_TRUE(std::isinf(want[v])) << "vertex " << v;  // both unreachable
    } else {
      ASSERT_NEAR(want[v], reference[v], 1e-9) << "vertex " << v;
    }
  }

  sim::FaultPlan plan;
  plan.crash_at = 3;
  gas::Config faulty = cfg;
  faulty.faults = std::make_shared<sim::FaultInjector>(plan);
  runtime::RecoveryOptions opts;
  opts.checkpoint_every = 2;
  auto outcome = runtime::run_with_recovery(
      [&] { return std::make_unique<gas::Engine<algo::SsspGas>>(g, part, sssp, faulty); },
      opts);
  EXPECT_EQ(outcome.recovery.recoveries, 1u);
  expect_bit_identical(outcome.engine->values(), want);
}

TEST(AutoRecovery, CrashWithoutCheckpointReplaysFromScratch) {
  const graph::Csr g = graph::Csr::build(graph::gen::rmat(7, 600, 5));
  const auto part = test::hash_partition(g, 2);
  algo::PageRankCyclops pr;
  pr.epsilon = 1e-10;
  core::Config cfg = core::Config::cyclops(2, 1);
  cfg.max_supersteps = 60;
  core::Engine<algo::PageRankCyclops> clean(g, part, pr, cfg);
  (void)clean.run();

  sim::FaultPlan plan;
  plan.crash_at = 5;
  core::Config faulty = cfg;
  faulty.faults = std::make_shared<sim::FaultInjector>(plan);
  runtime::RecoveryOptions opts;
  opts.checkpoint_every = 0;  // no checkpoints at all
  auto outcome = runtime::run_with_recovery(
      [&] {
        return std::make_unique<core::Engine<algo::PageRankCyclops>>(g, part, pr,
                                                                     faulty);
      },
      opts);
  EXPECT_EQ(outcome.recovery.checkpoints_taken, 0u);
  EXPECT_EQ(outcome.recovery.lost_supersteps, 5u);  // everything replayed
  expect_bit_identical(outcome.engine->values(), clean.values());
}

TEST(AutoRecovery, UnrecoverableWhenRetriesExhausted) {
  // max_recoveries caps the rollback loop; an injector that keeps crashing
  // every incarnation escalates to the caller.
  const graph::Csr g = graph::Csr::build(graph::gen::rmat(6, 300, 5));
  const auto part = test::hash_partition(g, 2);
  algo::PageRankCyclops pr;
  core::Config cfg = core::Config::cyclops(2, 1);
  cfg.max_supersteps = 30;
  sim::FaultPlan plan;
  plan.crash_at = 2;
  core::Config faulty = cfg;
  faulty.faults = std::make_shared<sim::FaultInjector>(plan);
  runtime::RecoveryOptions opts;
  opts.checkpoint_every = 0;
  opts.max_recoveries = 1;  // first crash already exhausts the budget
  EXPECT_THROW(
      (void)runtime::run_with_recovery(
          [&] {
            return std::make_unique<core::Engine<algo::PageRankCyclops>>(g, part, pr,
                                                                         faulty);
          },
          opts),
      sim::FaultError);
}

// The injector's one-shot crash latch only works if every incarnation shares
// it: a factory that builds a fresh injector per engine would re-crash every
// replacement. run_with_recovery refuses such a factory at the first rebuild.
TEST(AutoRecovery, FactoryMustShareTheInjector) {
  const graph::Csr g = graph::Csr::build(graph::gen::rmat(6, 300, 5));
  const auto part = test::hash_partition(g, 2);
  algo::PageRankCyclops pr;
  core::Config cfg = core::Config::cyclops(2, 1);
  cfg.max_supersteps = 30;
  sim::FaultPlan plan;
  plan.crash_at = 2;
  runtime::RecoveryOptions opts;
  EXPECT_DEATH(
      (void)runtime::run_with_recovery(
          [&] {
            core::Config fresh = cfg;
            fresh.faults = std::make_shared<sim::FaultInjector>(plan);
            return std::make_unique<core::Engine<algo::PageRankCyclops>>(g, part, pr,
                                                                         fresh);
          },
          opts),
      "CYCLOPS_CHECK failed: next->config\\(\\)\\.faults");
}

// Satellite: identical --fault-seed must mean identical fault schedule,
// identical RecoveryStats, and bit-identical final values.
TEST(Determinism, IdenticalSeedsIdenticalRecovery) {
  const graph::Csr g = graph::Csr::build(graph::gen::rmat(8, 1800, 33));
  const auto part = test::hash_partition(g, 4);
  algo::PageRankCyclops pr;
  pr.epsilon = 1e-10;
  core::Config base = core::Config::cyclops(4, 1);
  base.max_supersteps = 80;

  auto run_once = [&](std::uint64_t seed) {
    sim::FaultPlan plan;
    plan.seed = seed;
    plan.crash_at = 7;
    plan.crash_machine = 1;
    plan.drop_rate = 0.1;
    plan.corrupt_rate = 0.05;
    core::Config cfg = base;
    cfg.faults = std::make_shared<sim::FaultInjector>(plan);
    runtime::RecoveryOptions opts;
    opts.checkpoint_every = 3;
    auto outcome = runtime::run_with_recovery(
        [&] {
          return std::make_unique<core::Engine<algo::PageRankCyclops>>(g, part, pr,
                                                                       cfg);
        },
        opts);
    return std::make_pair(outcome.recovery, outcome.engine->values());
  };

  const auto [stats_a, values_a] = run_once(1234);
  const auto [stats_b, values_b] = run_once(1234);

  EXPECT_EQ(stats_a.checkpoints_taken, stats_b.checkpoints_taken);
  EXPECT_EQ(stats_a.checkpoint_bytes_written, stats_b.checkpoint_bytes_written);
  EXPECT_EQ(stats_a.last_checkpoint_bytes, stats_b.last_checkpoint_bytes);
  EXPECT_EQ(stats_a.modeled_checkpoint_s, stats_b.modeled_checkpoint_s);
  EXPECT_EQ(stats_a.faults_detected, stats_b.faults_detected);
  EXPECT_EQ(stats_a.recoveries, stats_b.recoveries);
  EXPECT_EQ(stats_a.lost_supersteps, stats_b.lost_supersteps);
  // modeled_recovery_s prices the replayed window from the run's modeled
  // per-superstep times (see recovery.hpp), so like everything else in
  // RecoveryStats it must match bit for bit.
  EXPECT_EQ(stats_a.modeled_recovery_s, stats_b.modeled_recovery_s);
  EXPECT_EQ(stats_a.dropped_packages, stats_b.dropped_packages);
  EXPECT_EQ(stats_a.corrupted_packages, stats_b.corrupted_packages);
  EXPECT_EQ(stats_a.retransmissions, stats_b.retransmissions);
  EXPECT_EQ(stats_a.modeled_fault_overhead_s, stats_b.modeled_fault_overhead_s);

  ASSERT_EQ(values_a.size(), values_b.size());
  for (std::size_t i = 0; i < values_a.size(); ++i) {
    EXPECT_EQ(values_a[i], values_b[i]) << "vertex " << i;  // bit-identical
  }
}

// §3.6's measurable claim, engine-to-engine: the Cyclops lightweight
// checkpoint (masters only) is strictly smaller than the BSP heavyweight one
// (vertex state + in-flight messages) at the same mid-run boundary.
TEST(CheckpointModes, CyclopsLightweightSmallerThanBspHeavyweight) {
  const graph::Csr g = graph::Csr::build(graph::gen::rmat(10, 9000, 7));
  const auto part = test::hash_partition(g, 6);

  runtime::MemoryCheckpointStore bsp_store;
  algo::PageRankBsp bsp_pr;
  bsp_pr.epsilon = 1e-11;
  bsp::Config bsp_cfg = bsp::Config::workers(6);
  bsp_cfg.max_supersteps = 6;
  runtime::RecoveryOptions bsp_opts;
  bsp_opts.checkpoint_every = 5;
  bsp_opts.mode = runtime::CheckpointMode::kHeavyweight;
  auto bsp_outcome = runtime::run_with_recovery(
      [&] {
        return std::make_unique<bsp::Engine<algo::PageRankBsp>>(g, part, bsp_pr,
                                                                bsp_cfg);
      },
      bsp_opts, &bsp_store);

  runtime::MemoryCheckpointStore cy_store;
  algo::PageRankCyclops cy_pr;
  cy_pr.epsilon = 1e-11;
  core::Config cy_cfg = core::Config::cyclops(6, 1);
  cy_cfg.max_supersteps = 6;
  runtime::RecoveryOptions cy_opts;
  cy_opts.checkpoint_every = 5;
  cy_opts.mode = runtime::CheckpointMode::kLightweight;
  auto cy_outcome = runtime::run_with_recovery(
      [&] {
        return std::make_unique<core::Engine<algo::PageRankCyclops>>(g, part, cy_pr,
                                                                     cy_cfg);
      },
      cy_opts, &cy_store);

  ASSERT_GT(bsp_outcome.recovery.checkpoints_taken, 0u);
  ASSERT_GT(cy_outcome.recovery.checkpoints_taken, 0u);
  EXPECT_LT(cy_outcome.recovery.last_checkpoint_bytes,
            bsp_outcome.recovery.last_checkpoint_bytes);
  EXPECT_LT(cy_outcome.recovery.modeled_checkpoint_s,
            bsp_outcome.recovery.modeled_checkpoint_s);
}

}  // namespace
}  // namespace cyclops
