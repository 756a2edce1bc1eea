// Log-based localized recovery tests: MessageLog backings and verification
// counters, cost-model ordering of the recovery modes, and retry exhaustion
// in log mode. Replay fidelity — bit-identical values and wire digest against
// a fault-free twin, for every catalog pair, a spill-backed log, a corrupt
// checkpoint and double faults — is checked by the differential harness's
// fault axis (test_differential.cpp).

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "cyclops/graph/csr.hpp"
#include "cyclops/algorithms/pagerank.hpp"
#include "cyclops/common/crc32.hpp"
#include "cyclops/core/engine.hpp"
#include "cyclops/graph/generators.hpp"
#include "cyclops/runtime/recovery.hpp"
#include "cyclops/sim/message_log.hpp"
#include "test_util.hpp"

namespace cyclops {
namespace {

std::vector<std::uint8_t> payload_bytes(std::initializer_list<std::uint8_t> b) {
  return std::vector<std::uint8_t>(b);
}

// --- MessageLog unit tests -------------------------------------------------

TEST(MessageLog, MemoryBackingVerifiesBitForBit) {
  sim::MessageLog log;
  const auto p1 = payload_bytes({1, 2, 3, 4});
  const auto p2 = payload_bytes({9, 8, 7});
  log.append(3, 1, 0, 0, 4, 2, p1, crc32(p1));
  log.append(3, 1, 4, 0, 0, 1, p2, crc32(p2));
  EXPECT_EQ(log.stats().logged_packages, 2u);
  EXPECT_EQ(log.stats().logged_messages, 3u);
  EXPECT_EQ(log.stats().logged_bytes, 7u);

  EXPECT_TRUE(log.verify_replayed(3, 1, 0, 0, 4, p1));
  EXPECT_EQ(log.stats().verified_packages, 1u);
  EXPECT_EQ(log.stats().verified_bytes, 4u);

  // A single differing byte is a mismatch, not a pass.
  auto tampered = p2;
  tampered[1] ^= 0x01;
  EXPECT_FALSE(log.verify_replayed(3, 1, 4, 0, 0, tampered));
  EXPECT_EQ(log.stats().mismatched_packages, 1u);

  // A replayed package that was never logged is "missing".
  EXPECT_FALSE(log.verify_replayed(4, 1, 0, 0, 4, p1));
  EXPECT_EQ(log.stats().missing_packages, 1u);
}

TEST(MessageLog, LanesWithSameEndpointsAreDistinctEntries) {
  // An MT engine sends one package per compute thread (= fabric lane), all
  // with the same (superstep, exchange, from, to). Each lane must be its own
  // log entry, or replay verification compares thread A's bytes against
  // thread B's package. Regression test for exactly that collision.
  sim::MessageLog log;
  const auto lane0 = payload_bytes({1, 1, 1, 1});
  const auto lane1 = payload_bytes({2, 2, 2});
  const auto lane2 = payload_bytes({3});
  log.append(5, 1, 0, 0, 2, 1, lane0, crc32(lane0));
  log.append(5, 1, 0, 1, 2, 1, lane1, crc32(lane1));
  log.append(5, 1, 0, 2, 2, 1, lane2, crc32(lane2));
  EXPECT_EQ(log.entry_count(), 3u);

  EXPECT_TRUE(log.verify_replayed(5, 1, 0, 0, 2, lane0));
  EXPECT_TRUE(log.verify_replayed(5, 1, 0, 1, 2, lane1));
  EXPECT_TRUE(log.verify_replayed(5, 1, 0, 2, 2, lane2));
  EXPECT_EQ(log.stats().verified_packages, 3u);
  EXPECT_EQ(log.stats().mismatched_packages, 0u);

  // Replaying lane 1's bytes under lane 0's key must NOT pass.
  EXPECT_FALSE(log.verify_replayed(5, 1, 0, 0, 2, lane1));
  EXPECT_EQ(log.stats().mismatched_packages, 1u);
}

TEST(MessageLog, SpillBackingRoundTrips) {
  sim::MessageLog log(sim::LogStoreKind::kSpill, ::testing::TempDir());
  EXPECT_EQ(log.kind(), sim::LogStoreKind::kSpill);
  const auto p = payload_bytes({0xde, 0xad, 0xbe, 0xef, 0x42});
  log.append(1, 1, 0, 0, 2, 1, p, crc32(p));
  log.append(2, 1, 2, 0, 0, 1, p, crc32(p));
  EXPECT_TRUE(log.verify_replayed(1, 1, 0, 0, 2, p));
  EXPECT_TRUE(log.verify_replayed(2, 1, 2, 0, 0, p));
  auto wrong = p;
  wrong[0] = 0;
  EXPECT_FALSE(log.verify_replayed(2, 1, 2, 0, 0, wrong));
  EXPECT_EQ(log.stats().verified_packages, 2u);
  EXPECT_EQ(log.stats().mismatched_packages, 1u);
}

TEST(MessageLog, TruncateDropsIndexKeepsCumulativeStats) {
  sim::MessageLog log;
  const auto p = payload_bytes({5, 5});
  for (Superstep s = 0; s < 4; ++s) log.append(s, 1, 0, 0, 1, 1, p, crc32(p));
  EXPECT_EQ(log.entry_count(), 4u);
  log.truncate_before(2);
  EXPECT_EQ(log.entry_count(), 2u);
  EXPECT_EQ(log.stats().logged_packages, 4u);  // stats stay cumulative
  EXPECT_EQ(log.find(1, 1, 0, 0, 1), nullptr);
  EXPECT_NE(log.find(2, 1, 0, 0, 1), nullptr);
}

TEST(MessageLog, RefeedPricesOnlyTrafficIntoDeadMachine) {
  // Topology 2 machines x 2 workers: workers {0,1} on machine 0, {2,3} on 1.
  sim::Topology topo;
  topo.machines = 2;
  topo.workers_per_machine = 2;
  const sim::CostModel model = sim::CostModel::hama_java();
  sim::MessageLog log;
  const auto p = payload_bytes({1, 2, 3, 4, 5, 6, 7, 8});
  log.append(5, 1, 2, 0, 0, 4, p, crc32(p));  // survivor -> dead machine 0
  log.append(5, 1, 0, 0, 2, 4, p, crc32(p));  // dead machine's own outbound
  log.append(9, 1, 2, 0, 1, 4, p, crc32(p));  // right direction, outside window

  // One qualifying package in [5,6): priced as a single bulk re-send (one
  // RPC + the logged bytes), not per-application-message marshalling.
  const double us = log.refeed_wire_us(topo, model, /*dead=*/0, 5, 6);
  EXPECT_DOUBLE_EQ(us, model.remote_cost_us(1, p.size()));
  EXPECT_EQ(log.refeed_wire_us(topo, model, 0, 6, 9), 0.0);
}

// --- Cost model: localized replay must undercut global rollback ------------

TEST(LogRecovery, LocalizedRecoveryIsCheaperThanRollback) {
  const graph::Csr g = graph::Csr::build(graph::gen::rmat(10, 12000, 5));
  const auto part = test::hash_partition(g, 4);
  algo::PageRankCyclops pr;
  pr.epsilon = 1e-11;
  core::Config base = core::Config::cyclops(4, 1);
  base.max_supersteps = 80;

  auto run_mode = [&](runtime::RecoveryMode mode) {
    sim::FaultPlan plan;
    plan.crash_at = 19;  // checkpoints at 5/10/15 -> a 4-superstep window
    plan.crash_machine = 2;
    core::Config cfg = base;
    cfg.faults = std::make_shared<sim::FaultInjector>(plan);
    if (mode != runtime::RecoveryMode::kRollback) {
      cfg.message_log = std::make_shared<sim::MessageLog>();
    }
    runtime::RecoveryOptions opts;
    opts.checkpoint_every = 5;
    opts.recovery = mode;
    auto outcome = runtime::run_with_recovery(
        [&] {
          return std::make_unique<core::Engine<algo::PageRankCyclops>>(g, part, pr,
                                                                       cfg);
        },
        opts);
    EXPECT_EQ(outcome.recovery.recoveries, 1u)
        << runtime::recovery_mode_name(mode);
    return outcome.recovery;
  };

  const auto rollback = run_mode(runtime::RecoveryMode::kRollback);
  const auto logged = run_mode(runtime::RecoveryMode::kLog);
  const auto parallel = run_mode(runtime::RecoveryMode::kLogParallel);

  // Same fault, same window: all three lose the same supersteps but charge
  // them differently. Rollback redoes the whole cluster's window; log-based
  // modes charge one machine's share (+ log re-feed wire time).
  EXPECT_EQ(rollback.lost_supersteps, logged.lost_supersteps);
  EXPECT_EQ(rollback.lost_supersteps, parallel.lost_supersteps);
  EXPECT_GT(rollback.replay_window_s, 0.0);
  EXPECT_LT(logged.modeled_recovery_s, rollback.modeled_recovery_s);
  EXPECT_GT(parallel.modeled_recovery_s, 0.0);
  // Rollback modes never touch the log counters.
  EXPECT_EQ(rollback.replay_verified_packages, 0u);
  EXPECT_GT(logged.replay_verified_packages, 0u);
  EXPECT_GT(parallel.replay_verified_packages, 0u);
}

TEST(LogRecovery, LogModeStillEscalatesWhenRetriesExhausted) {
  const graph::Csr g = graph::Csr::build(graph::gen::rmat(6, 300, 5));
  const auto part = test::hash_partition(g, 2);
  algo::PageRankCyclops pr;
  core::Config cfg = core::Config::cyclops(2, 1);
  cfg.max_supersteps = 30;
  sim::FaultPlan plan;
  plan.crash_at = 2;
  plan.crash_machine = 0;
  plan.crash2_at = 3;
  plan.crash2_machine = 1;
  core::Config faulty = cfg;
  faulty.faults = std::make_shared<sim::FaultInjector>(plan);
  faulty.message_log = std::make_shared<sim::MessageLog>();
  runtime::RecoveryOptions opts;
  opts.checkpoint_every = 0;
  opts.max_recoveries = 2;  // second crash exhausts the budget
  opts.recovery = runtime::RecoveryMode::kLog;
  EXPECT_THROW(
      (void)runtime::run_with_recovery(
          [&] {
            return std::make_unique<core::Engine<algo::PageRankCyclops>>(g, part, pr,
                                                                         faulty);
          },
          opts),
      sim::FaultError);
}

}  // namespace
}  // namespace cyclops
