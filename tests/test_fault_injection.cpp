// Fault-injection fabric + automated recovery runtime tests: CRC32 known
// answers, deterministic fault schedules (identical seed -> identical
// faults), absorbed wire faults (drops/corruption cost time but never change
// results), straggler delay, durable checkpoint stores, and the recovery
// loop's refusals: exhausted retries, an unshared injector, a log mode
// without a log. Crash recovery itself is checked by the differential
// harness's fault axis (test_differential.cpp).

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "cyclops/graph/csr.hpp"
#include "cyclops/algorithms/pagerank.hpp"
#include "cyclops/bsp/engine.hpp"
#include "cyclops/common/crc32.hpp"
#include "cyclops/core/engine.hpp"
#include "cyclops/graph/generators.hpp"
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

// Bit-at-a-time CRC-32/IEEE, straight from the definition: the reference the
// table-driven crc32 must match on every length and alignment.
std::uint32_t crc32_bitwise(std::span<const std::uint8_t> bytes) {
  std::uint32_t c = 0xffffffffu;
  for (const std::uint8_t b : bytes) {
    c ^= b;
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xedb88320u & (0u - (c & 1u)));
  }
  return c ^ 0xffffffffu;
}

TEST(Crc32, MatchesBitwiseReferenceOnEveryLengthAndAlignment) {
  std::mt19937 rng(2014);
  std::vector<std::uint8_t> buf(1 << 20);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng());
  const std::span<const std::uint8_t> all(buf);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t len = 0; len <= 300; ++len) {
      const auto view = all.subspan(offset, len);
      ASSERT_EQ(crc32(view), crc32_bitwise(view)) << "offset " << offset << " length " << len;
    }
  }
  EXPECT_EQ(crc32(all), crc32_bitwise(all));
  for (const std::uint8_t fill : {std::uint8_t{0x00}, std::uint8_t{0xff}}) {
    const std::vector<std::uint8_t> uniform(4099, fill);
    EXPECT_EQ(crc32(uniform), crc32_bitwise(uniform)) << "fill " << int{fill};
  }
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

// --- Automated crash recovery's failure paths. The recoveries themselves —
// bit-identical to a fault-free twin for every catalog pair and mode — are
// cells of the differential harness (test_differential.cpp). ---

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

// A log-based mode replays from the MessageLog in the engine's Config; without
// one the run would fall back to rollback accounting while reporting log mode.
TEST(AutoRecovery, LogModeRequiresAMessageLog) {
  const graph::Csr g = graph::Csr::build(graph::gen::rmat(6, 300, 5));
  const auto part = test::hash_partition(g, 2);
  algo::PageRankCyclops pr;
  core::Config cfg = core::Config::cyclops(2, 1);
  cfg.max_supersteps = 30;
  sim::FaultPlan plan;
  plan.crash_at = 2;
  cfg.faults = std::make_shared<sim::FaultInjector>(plan);
  runtime::RecoveryOptions opts;
  opts.recovery = runtime::RecoveryMode::kLog;
  EXPECT_DEATH(
      (void)runtime::run_with_recovery(
          [&] { return std::make_unique<core::Engine<algo::PageRankCyclops>>(g, part, pr, cfg); },
          opts),
      "CYCLOPS_CHECK failed: !localized \\|\\| log != nullptr");
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
