// Log-based localized recovery tests: MessageLog backings and verification
// counters, replay fidelity (bit-identical values AND bit-identical wire
// digest vs a fault-free run) across all three engines, cost-model ordering
// of the recovery modes, corrupt-checkpoint fallback accounting, retry
// exhaustion in log mode, and a double fault landing during a replay window.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "cyclops/graph/csr.hpp"
#include "cyclops/algorithms/cc.hpp"
#include "cyclops/algorithms/pagerank.hpp"
#include "cyclops/algorithms/sssp.hpp"
#include "cyclops/bsp/engine.hpp"
#include "cyclops/common/crc32.hpp"
#include "cyclops/core/engine.hpp"
#include "cyclops/gas/engine.hpp"
#include "cyclops/graph/generators.hpp"
#include "cyclops/partition/vertex_cut.hpp"
#include "cyclops/runtime/recovery.hpp"
#include "cyclops/sim/message_log.hpp"
#include "test_util.hpp"

namespace cyclops {
namespace {

template <typename Values>
void expect_bit_identical(const Values& got, const Values& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "vertex " << i;
  }
}

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

// --- Replay fidelity: values and wire digest must match a fault-free run ---

struct Fidelity {
  metrics::RecoveryStats recovery;
  std::uint64_t digest = 0;
};

void expect_faithful(const Fidelity& f, std::uint64_t clean_digest,
                     std::uint32_t expected_recoveries = 1) {
  EXPECT_EQ(f.recovery.recoveries, expected_recoveries);
  EXPECT_EQ(f.digest, clean_digest) << "wire digest diverged from fault-free run";
  EXPECT_GT(f.recovery.replay_verified_packages, 0u);
  EXPECT_EQ(f.recovery.replay_log_mismatches, 0u);
  EXPECT_GT(f.recovery.log_packages, 0u);
}

TEST(LogRecovery, CyclopsPageRankReplayIsBitFaithful) {
  const graph::Csr g = graph::Csr::build(graph::gen::rmat(8, 1600, 2014));
  const auto part = test::hash_partition(g, 4);
  algo::PageRankCyclops pr;
  pr.epsilon = 1e-11;
  core::Config cfg = core::Config::cyclops(4, 1);
  cfg.max_supersteps = 200;

  core::Engine<algo::PageRankCyclops> clean(g, part, pr, cfg);
  (void)clean.run();
  const std::uint64_t clean_digest = clean.fabric().wire_digest();

  sim::FaultPlan plan;
  plan.crash_at = 10;
  plan.crash_machine = 2;
  core::Config faulty = cfg;
  faulty.faults = std::make_shared<sim::FaultInjector>(plan);
  faulty.message_log = std::make_shared<sim::MessageLog>();

  runtime::RecoveryOptions opts;
  opts.checkpoint_every = 3;
  opts.recovery = runtime::RecoveryMode::kLog;
  auto outcome = runtime::run_with_recovery(
      [&] {
        return std::make_unique<core::Engine<algo::PageRankCyclops>>(g, part, pr,
                                                                     faulty);
      },
      opts);

  expect_faithful({outcome.recovery, outcome.engine->fabric().wire_digest()},
                  clean_digest);
  EXPECT_TRUE(outcome.engine->replicas_consistent());
  expect_bit_identical(outcome.engine->values(), clean.values());
}

TEST(LogRecovery, CyclopsSsspParallelReplayIsBitFaithful) {
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
  const std::uint64_t clean_digest = clean.fabric().wire_digest();

  sim::FaultPlan plan;
  plan.crash_at = 7;
  plan.crash_machine = 1;
  core::Config faulty = cfg;
  faulty.faults = std::make_shared<sim::FaultInjector>(plan);
  faulty.message_log = std::make_shared<sim::MessageLog>();

  runtime::RecoveryOptions opts;
  opts.checkpoint_every = 4;
  opts.recovery = runtime::RecoveryMode::kLogParallel;
  auto outcome = runtime::run_with_recovery(
      [&] {
        return std::make_unique<core::Engine<algo::SsspCyclops>>(g, part, sssp,
                                                                 faulty);
      },
      opts);

  expect_faithful({outcome.recovery, outcome.engine->fabric().wire_digest()},
                  clean_digest);
  expect_bit_identical(outcome.engine->values(), clean.values());
}

TEST(LogRecovery, CyclopsCcReplayIsBitFaithful) {
  // A lattice has a large diameter, so min-label propagation runs for ~28
  // supersteps — plenty of room for a mid-run crash with a non-empty window.
  graph::gen::RoadSpec spec;
  spec.rows = 14;
  spec.cols = 14;
  const graph::Csr g = graph::Csr::build(graph::gen::road_grid(spec, 3));
  const auto part = test::hash_partition(g, 4);
  algo::CcCyclops cc;
  core::Config cfg = core::Config::cyclops(4, 1);
  cfg.max_supersteps = 100;

  core::Engine<algo::CcCyclops> clean(g, part, cc, cfg);
  (void)clean.run();
  const std::uint64_t clean_digest = clean.fabric().wire_digest();

  sim::FaultPlan plan;
  plan.crash_at = 7;
  plan.crash_machine = 3;
  core::Config faulty = cfg;
  faulty.faults = std::make_shared<sim::FaultInjector>(plan);
  faulty.message_log = std::make_shared<sim::MessageLog>();

  runtime::RecoveryOptions opts;
  opts.checkpoint_every = 3;
  opts.recovery = runtime::RecoveryMode::kLog;
  auto outcome = runtime::run_with_recovery(
      [&] { return std::make_unique<core::Engine<algo::CcCyclops>>(g, part, cc, faulty); },
      opts);

  expect_faithful({outcome.recovery, outcome.engine->fabric().wire_digest()},
                  clean_digest);
  expect_bit_identical(outcome.engine->values(), clean.values());
}

TEST(LogRecovery, CyclopsMtPageRankReplayIsBitFaithful) {
  // The MT engine sends one package per compute thread between each worker
  // pair — per-lane log keys are what keep these from colliding (see
  // MessageLog.LanesWithSameEndpointsAreDistinctEntries for the unit-level
  // version). 4 threads means 4 same-(from,to) packages per exchange.
  const graph::Csr g = graph::Csr::build(graph::gen::rmat(8, 1600, 2014));
  const auto part = test::hash_partition(g, 4);
  algo::PageRankCyclops pr;
  pr.epsilon = 1e-11;
  core::Config cfg = core::Config::cyclops_mt(4, 4, 2);
  cfg.max_supersteps = 200;

  core::Engine<algo::PageRankCyclops> clean(g, part, pr, cfg);
  (void)clean.run();
  const std::uint64_t clean_digest = clean.fabric().wire_digest();

  sim::FaultPlan plan;
  plan.crash_at = 10;
  plan.crash_machine = 2;
  core::Config faulty = cfg;
  faulty.faults = std::make_shared<sim::FaultInjector>(plan);
  faulty.message_log = std::make_shared<sim::MessageLog>();

  runtime::RecoveryOptions opts;
  opts.checkpoint_every = 3;
  opts.recovery = runtime::RecoveryMode::kLog;
  auto outcome = runtime::run_with_recovery(
      [&] {
        return std::make_unique<core::Engine<algo::PageRankCyclops>>(g, part, pr,
                                                                     faulty);
      },
      opts);

  expect_faithful({outcome.recovery, outcome.engine->fabric().wire_digest()},
                  clean_digest);
  EXPECT_TRUE(outcome.engine->replicas_consistent());
  expect_bit_identical(outcome.engine->values(), clean.values());
}

TEST(LogRecovery, BspPageRankReplayIsBitFaithful) {
  const graph::Csr g = graph::Csr::build(graph::gen::rmat(8, 1600, 2014));
  const auto part = test::hash_partition(g, 4);
  algo::PageRankBsp pr;
  pr.epsilon = 1e-11;
  bsp::Config cfg = bsp::Config::workers(4);
  cfg.max_supersteps = 200;

  bsp::Engine<algo::PageRankBsp> clean(g, part, pr, cfg);
  (void)clean.run();
  const std::uint64_t clean_digest = clean.fabric().wire_digest();

  sim::FaultPlan plan;
  plan.crash_at = 10;
  plan.crash_machine = 2;
  bsp::Config faulty = cfg;
  faulty.faults = std::make_shared<sim::FaultInjector>(plan);
  faulty.message_log = std::make_shared<sim::MessageLog>();

  runtime::RecoveryOptions opts;
  opts.checkpoint_every = 3;
  opts.mode = runtime::CheckpointMode::kHeavyweight;
  opts.recovery = runtime::RecoveryMode::kLog;
  auto outcome = runtime::run_with_recovery(
      [&] {
        return std::make_unique<bsp::Engine<algo::PageRankBsp>>(g, part, pr, faulty);
      },
      opts);

  expect_faithful({outcome.recovery, outcome.engine->fabric().wire_digest()},
                  clean_digest);
  expect_bit_identical(outcome.engine->values(), clean.values());
}

TEST(LogRecovery, BspSsspParallelReplayIsBitFaithful) {
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
  const std::uint64_t clean_digest = clean.fabric().wire_digest();

  sim::FaultPlan plan;
  plan.crash_at = 6;
  plan.crash_machine = 0;
  bsp::Config faulty = cfg;
  faulty.faults = std::make_shared<sim::FaultInjector>(plan);
  faulty.message_log = std::make_shared<sim::MessageLog>();

  runtime::RecoveryOptions opts;
  opts.checkpoint_every = 4;
  opts.mode = runtime::CheckpointMode::kHeavyweight;
  opts.recovery = runtime::RecoveryMode::kLogParallel;
  auto outcome = runtime::run_with_recovery(
      [&] { return std::make_unique<bsp::Engine<algo::SsspBsp>>(g, part, sssp, faulty); },
      opts);

  expect_faithful({outcome.recovery, outcome.engine->fabric().wire_digest()},
                  clean_digest);
  expect_bit_identical(outcome.engine->values(), clean.values());
}

TEST(LogRecovery, BspCcReplayIsBitFaithful) {
  graph::gen::RoadSpec spec;
  spec.rows = 14;
  spec.cols = 14;
  const graph::Csr g = graph::Csr::build(graph::gen::road_grid(spec, 3));
  const auto part = test::hash_partition(g, 4);
  algo::CcBsp cc;
  bsp::Config cfg = bsp::Config::workers(4);
  cfg.max_supersteps = 100;

  bsp::Engine<algo::CcBsp> clean(g, part, cc, cfg);
  (void)clean.run();
  const std::uint64_t clean_digest = clean.fabric().wire_digest();

  sim::FaultPlan plan;
  plan.crash_at = 7;
  plan.crash_machine = 1;
  bsp::Config faulty = cfg;
  faulty.faults = std::make_shared<sim::FaultInjector>(plan);
  faulty.message_log = std::make_shared<sim::MessageLog>();

  runtime::RecoveryOptions opts;
  opts.checkpoint_every = 3;
  opts.mode = runtime::CheckpointMode::kHeavyweight;
  opts.recovery = runtime::RecoveryMode::kLog;
  auto outcome = runtime::run_with_recovery(
      [&] { return std::make_unique<bsp::Engine<algo::CcBsp>>(g, part, cc, faulty); },
      opts);

  expect_faithful({outcome.recovery, outcome.engine->fabric().wire_digest()},
                  clean_digest);
  expect_bit_identical(outcome.engine->values(), clean.values());
}

TEST(LogRecovery, GasPageRankReplayIsBitFaithful) {
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
  const std::uint64_t clean_digest = clean.fabric().wire_digest();

  sim::FaultPlan plan;
  plan.crash_at = 10;
  plan.crash_machine = 2;
  gas::Config faulty = cfg;
  faulty.faults = std::make_shared<sim::FaultInjector>(plan);
  faulty.message_log = std::make_shared<sim::MessageLog>();

  runtime::RecoveryOptions opts;
  opts.checkpoint_every = 4;
  opts.recovery = runtime::RecoveryMode::kLog;
  auto outcome = runtime::run_with_recovery(
      [&] {
        return std::make_unique<gas::Engine<algo::PageRankGas>>(g, part, pr, faulty);
      },
      opts);

  expect_faithful({outcome.recovery, outcome.engine->fabric().wire_digest()},
                  clean_digest);
  const auto got = outcome.engine->values();
  const auto want = clean.values();
  ASSERT_EQ(got.size(), want.size());
  for (VertexId v = 0; v < got.size(); ++v) {
    EXPECT_EQ(got[v].rank, want[v].rank) << "vertex " << v;
  }
}

TEST(LogRecovery, GasSsspReplayIsBitFaithful) {
  const graph::EdgeList e = graph::gen::rmat(8, 1600, 99);
  const graph::Csr g = graph::Csr::build(e);
  const auto part = partition::RandomVertexCut{}.partition(g, 3);
  algo::SsspGas sssp;
  sssp.source = 0;
  gas::Config cfg = gas::Config::workers(3);
  cfg.max_iterations = 200;

  gas::Engine<algo::SsspGas> clean(g, part, sssp, cfg);
  (void)clean.run();
  const std::uint64_t clean_digest = clean.fabric().wire_digest();

  sim::FaultPlan plan;
  plan.crash_at = 3;
  plan.crash_machine = 1;
  gas::Config faulty = cfg;
  faulty.faults = std::make_shared<sim::FaultInjector>(plan);
  faulty.message_log = std::make_shared<sim::MessageLog>();

  runtime::RecoveryOptions opts;
  opts.checkpoint_every = 2;
  opts.recovery = runtime::RecoveryMode::kLogParallel;
  auto outcome = runtime::run_with_recovery(
      [&] { return std::make_unique<gas::Engine<algo::SsspGas>>(g, part, sssp, faulty); },
      opts);

  expect_faithful({outcome.recovery, outcome.engine->fabric().wire_digest()},
                  clean_digest);
  expect_bit_identical(outcome.engine->values(), clean.values());
}

TEST(LogRecovery, SpillBackedLogIsBitFaithful) {
  const graph::Csr g = graph::Csr::build(graph::gen::rmat(8, 1600, 2014));
  const auto part = test::hash_partition(g, 4);
  algo::PageRankCyclops pr;
  pr.epsilon = 1e-11;
  core::Config cfg = core::Config::cyclops(4, 1);
  cfg.max_supersteps = 200;

  core::Engine<algo::PageRankCyclops> clean(g, part, pr, cfg);
  (void)clean.run();
  const std::uint64_t clean_digest = clean.fabric().wire_digest();

  sim::FaultPlan plan;
  plan.crash_at = 10;  // checkpoints at 3/6/9 -> window [9, 10) actually replays
  plan.crash_machine = 1;
  core::Config faulty = cfg;
  faulty.faults = std::make_shared<sim::FaultInjector>(plan);
  faulty.message_log = std::make_shared<sim::MessageLog>(sim::LogStoreKind::kSpill,
                                                         ::testing::TempDir());

  runtime::RecoveryOptions opts;
  opts.checkpoint_every = 3;
  opts.recovery = runtime::RecoveryMode::kLog;
  auto outcome = runtime::run_with_recovery(
      [&] {
        return std::make_unique<core::Engine<algo::PageRankCyclops>>(g, part, pr,
                                                                     faulty);
      },
      opts);

  expect_faithful({outcome.recovery, outcome.engine->fabric().wire_digest()},
                  clean_digest);
  expect_bit_identical(outcome.engine->values(), clean.values());
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

// --- Corrupt checkpoints are counted, not silently swallowed ---------------

/// Wraps MemoryCheckpointStore but hands back a bit-flipped sealed frame, so
/// every restore attempt fails its CRC and recovery must fall back to 0.
class CorruptingStore final : public runtime::CheckpointStore {
 public:
  void put(Superstep superstep, std::vector<std::uint8_t> sealed) override {
    inner_.put(superstep, std::move(sealed));
  }
  [[nodiscard]] std::optional<std::pair<Superstep, std::vector<std::uint8_t>>> latest()
      const override {
    auto snapshot = inner_.latest();
    if (snapshot && !snapshot->second.empty()) {
      snapshot->second[snapshot->second.size() / 2] ^= 0x20;
    }
    return snapshot;
  }

 private:
  runtime::MemoryCheckpointStore inner_;
};

TEST(LogRecovery, CorruptCheckpointIsCountedAndReplayedFromScratch) {
  const graph::Csr g = graph::Csr::build(graph::gen::rmat(7, 600, 5));
  const auto part = test::hash_partition(g, 2);
  algo::PageRankCyclops pr;
  pr.epsilon = 1e-10;
  core::Config cfg = core::Config::cyclops(2, 1);
  cfg.max_supersteps = 60;
  core::Engine<algo::PageRankCyclops> clean(g, part, pr, cfg);
  (void)clean.run();
  const std::uint64_t clean_digest = clean.fabric().wire_digest();

  sim::FaultPlan plan;
  plan.crash_at = 6;
  plan.crash_machine = 1;
  core::Config faulty = cfg;
  faulty.faults = std::make_shared<sim::FaultInjector>(plan);
  faulty.message_log = std::make_shared<sim::MessageLog>();

  CorruptingStore store;
  runtime::RecoveryOptions opts;
  opts.checkpoint_every = 2;
  opts.recovery = runtime::RecoveryMode::kLog;
  auto outcome = runtime::run_with_recovery(
      [&] {
        return std::make_unique<core::Engine<algo::PageRankCyclops>>(g, part, pr,
                                                                     faulty);
      },
      opts, &store);

  // The checkpoint at boundary 4 existed but was unusable: counted, and the
  // whole prefix was replayed (verified against the log) instead.
  EXPECT_EQ(outcome.recovery.corrupt_checkpoints, 1u);
  EXPECT_EQ(outcome.recovery.recoveries, 1u);
  EXPECT_EQ(outcome.recovery.lost_supersteps, 6u);
  expect_faithful({outcome.recovery, outcome.engine->fabric().wire_digest()},
                  clean_digest);
  expect_bit_identical(outcome.engine->values(), clean.values());
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

// --- Double fault: a second machine dies while the first replay window is
// still the digest-suppression frontier --------------------------------------

TEST(LogRecovery, DoubleFaultDuringReplayStaysBitFaithful) {
  const graph::Csr g = graph::Csr::build(graph::gen::rmat(8, 1600, 2014));
  const auto part = test::hash_partition(g, 4);
  algo::PageRankCyclops pr;
  pr.epsilon = 1e-11;
  core::Config cfg = core::Config::cyclops(4, 1);
  cfg.max_supersteps = 200;

  core::Engine<algo::PageRankCyclops> clean(g, part, pr, cfg);
  (void)clean.run();
  const std::uint64_t clean_digest = clean.fabric().wire_digest();

  // Machine 2 dies at superstep 10; the replacement resumes from 9 and
  // machine 3 dies at the very next barrier — inside the digest window the
  // first recovery armed (digest_covered_until must take the max, or the
  // second replay would double-fold the wire digest).
  sim::FaultPlan plan;
  plan.crash_at = 10;
  plan.crash_machine = 2;
  plan.crash2_at = 10;
  plan.crash2_machine = 3;
  core::Config faulty = cfg;
  faulty.faults = std::make_shared<sim::FaultInjector>(plan);
  faulty.message_log = std::make_shared<sim::MessageLog>();

  runtime::RecoveryOptions opts;
  opts.checkpoint_every = 3;
  opts.recovery = runtime::RecoveryMode::kLog;
  auto outcome = runtime::run_with_recovery(
      [&] {
        return std::make_unique<core::Engine<algo::PageRankCyclops>>(g, part, pr,
                                                                     faulty);
      },
      opts);

  EXPECT_EQ(outcome.recovery.faults_detected, 2u);
  expect_faithful({outcome.recovery, outcome.engine->fabric().wire_digest()},
                  clean_digest, /*expected_recoveries=*/2);
  expect_bit_identical(outcome.engine->values(), clean.values());
}

TEST(LogRecovery, DoubleFaultAfterReplayStaysBitFaithful) {
  const graph::Csr g = graph::Csr::build(graph::gen::rmat(8, 1600, 2014));
  const auto part = test::hash_partition(g, 4);
  algo::PageRankCyclops pr;
  pr.epsilon = 1e-11;
  core::Config cfg = core::Config::cyclops(4, 1);
  cfg.max_supersteps = 200;

  core::Engine<algo::PageRankCyclops> clean(g, part, pr, cfg);
  (void)clean.run();
  const std::uint64_t clean_digest = clean.fabric().wire_digest();

  sim::FaultPlan plan;
  plan.crash_at = 10;
  plan.crash_machine = 1;
  plan.crash2_at = 13;
  plan.crash2_machine = 3;
  core::Config faulty = cfg;
  faulty.faults = std::make_shared<sim::FaultInjector>(plan);
  faulty.message_log = std::make_shared<sim::MessageLog>();

  runtime::RecoveryOptions opts;
  opts.checkpoint_every = 3;
  opts.recovery = runtime::RecoveryMode::kLog;
  auto outcome = runtime::run_with_recovery(
      [&] {
        return std::make_unique<core::Engine<algo::PageRankCyclops>>(g, part, pr,
                                                                     faulty);
      },
      opts);

  EXPECT_EQ(outcome.recovery.recoveries, 2u);
  expect_faithful({outcome.recovery, outcome.engine->fabric().wire_digest()},
                  clean_digest, /*expected_recoveries=*/2);
  expect_bit_identical(outcome.engine->values(), clean.values());
}

}  // namespace
}  // namespace cyclops
