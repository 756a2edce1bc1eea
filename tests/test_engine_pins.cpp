// Behaviour pins for the three engines: memory_report() (every field), the
// modeled per-superstep times (prs/cmp/snd, wire and barrier; syn_s is
// always 0 and left out) and the fabric's wire digest, for one workload per
// execution model. The runs go over the stream store with a small cap, so the
// spill budget is armed and message_spill_bytes is exercised.
//
// The expected numbers were recorded from the engines before their shared
// lifecycle moved into runtime/engine_shell.hpp; any refactor of the engines
// must leave them unchanged. On a mismatch the test prints the observed pin
// in initializer form.
//
// The ModeledClock tests run one config twice and require every modeled time
// — per-superstep phases, wire and barrier, and the run total — to repeat bit
// for bit: no host time may leak into the modeled clock.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "cyclops/algorithms/pagerank.hpp"
#include "cyclops/algorithms/sssp.hpp"
#include "cyclops/bsp/engine.hpp"
#include "cyclops/core/engine.hpp"
#include "cyclops/gas/engine.hpp"
#include "cyclops/graph/csr.hpp"
#include "cyclops/graph/generators.hpp"
#include "cyclops/graph/store.hpp"
#include "cyclops/partition/hash.hpp"
#include "cyclops/partition/vertex_cut.hpp"
#include "test_util.hpp"

namespace cyclops {
namespace {

struct Pin {
  std::uint64_t vertex_state_bytes = 0;
  std::uint64_t replica_bytes = 0;
  std::uint64_t peak_message_bytes = 0;
  std::uint64_t message_churn_bytes = 0;
  std::uint64_t message_alloc_count = 0;
  std::uint64_t store_resident_bytes = 0;
  std::uint64_t store_on_disk_bytes = 0;
  std::uint64_t message_spill_bytes = 0;
  std::uint64_t supersteps = 0;
  std::uint64_t modeled_digest = 0;  ///< FNV-1a over the modeled times' bits
  std::uint64_t wire_digest = 0;
};

std::string describe(const Pin& p) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{%lluu, %lluu, %lluu, %lluu, %lluu, %lluu, %lluu, %lluu, %lluu, "
                "0x%016llxull, 0x%016llxull}",
                static_cast<unsigned long long>(p.vertex_state_bytes),
                static_cast<unsigned long long>(p.replica_bytes),
                static_cast<unsigned long long>(p.peak_message_bytes),
                static_cast<unsigned long long>(p.message_churn_bytes),
                static_cast<unsigned long long>(p.message_alloc_count),
                static_cast<unsigned long long>(p.store_resident_bytes),
                static_cast<unsigned long long>(p.store_on_disk_bytes),
                static_cast<unsigned long long>(p.message_spill_bytes),
                static_cast<unsigned long long>(p.supersteps),
                static_cast<unsigned long long>(p.modeled_digest),
                static_cast<unsigned long long>(p.wire_digest));
  return buf;
}

void fold(std::uint64_t& h, double x) {
  const auto bits = std::bit_cast<std::uint64_t>(x);
  for (int i = 0; i < 8; ++i) {
    h ^= (bits >> (8 * i)) & 0xffu;
    h *= 1099511628211ULL;
  }
}

template <typename Engine>
Pin pin_of(const Engine& engine, const metrics::RunStats& stats) {
  Pin p;
  const metrics::MemoryReport r = engine.memory_report();
  p.vertex_state_bytes = r.vertex_state_bytes;
  p.replica_bytes = r.replica_bytes;
  p.peak_message_bytes = r.peak_message_bytes;
  p.message_churn_bytes = r.message_churn_bytes;
  p.message_alloc_count = r.message_alloc_count;
  p.store_resident_bytes = r.store_resident_bytes;
  p.store_on_disk_bytes = r.store_on_disk_bytes;
  p.message_spill_bytes = r.message_spill_bytes;
  p.supersteps = stats.supersteps.size();
  p.modeled_digest = 1469598103934665603ULL;
  for (const metrics::SuperstepStats& s : stats.supersteps) {
    fold(p.modeled_digest, s.phases.prs_s);
    fold(p.modeled_digest, s.phases.cmp_s);
    fold(p.modeled_digest, s.phases.snd_s);
    fold(p.modeled_digest, s.modeled_comm_s);
    fold(p.modeled_digest, s.modeled_barrier_s);
  }
  p.wire_digest = engine.fabric().wire_digest();
  return p;
}

void expect_pin(const Pin& want, const Pin& got) {
  const std::string observed = "observed pin: " + describe(got);
  EXPECT_EQ(want.vertex_state_bytes, got.vertex_state_bytes) << observed;
  EXPECT_EQ(want.replica_bytes, got.replica_bytes) << observed;
  EXPECT_EQ(want.peak_message_bytes, got.peak_message_bytes) << observed;
  EXPECT_EQ(want.message_churn_bytes, got.message_churn_bytes) << observed;
  EXPECT_EQ(want.message_alloc_count, got.message_alloc_count) << observed;
  EXPECT_EQ(want.store_resident_bytes, got.store_resident_bytes) << observed;
  EXPECT_EQ(want.store_on_disk_bytes, got.store_on_disk_bytes) << observed;
  EXPECT_EQ(want.message_spill_bytes, got.message_spill_bytes) << observed;
  EXPECT_EQ(want.supersteps, got.supersteps) << observed;
  EXPECT_EQ(want.modeled_digest, got.modeled_digest) << observed;
  EXPECT_EQ(want.wire_digest, got.wire_digest) << observed;
}

/// Stream store under a 4 KB cap: a 2 KB message budget, below the
/// per-exchange buffering of every workload here.
std::unique_ptr<const graph::GraphStore> stream_store(const graph::EdgeList& e) {
  graph::StoreOptions opts;
  opts.kind = graph::StoreKind::kStream;
  opts.mem_cap_bytes = 4 << 10;
  return graph::make_store(e, opts);
}

TEST(EnginePins, BspPageRank) {
  const auto g = stream_store(graph::gen::rmat(9, 3000, 17));
  algo::PageRankBsp pr;
  pr.epsilon = 1e-10;
  bsp::Config cfg;
  cfg.topo = sim::Topology{2, 2};
  cfg.max_supersteps = 40;
  bsp::Engine<algo::PageRankBsp> engine(*g, partition::HashPartitioner{}.partition(*g, 4),
                                        pr, cfg);
  const metrics::RunStats stats = engine.run();
  const Pin got = pin_of(engine, stats);
  EXPECT_GT(got.message_spill_bytes, 0u);
  expect_pin(Pin{16400u, 0u, 2048u, 1521936u, 97560u, 12304u, 5220u, 1479040u, 40u, 0xa55dc57240f9419eull, 0x0dd9c9a2213d6eefull}, got);
}

TEST(EnginePins, CyclopsPageRank) {
  const auto g = stream_store(graph::gen::rmat(9, 3000, 17));
  algo::PageRankCyclops pr;
  pr.epsilon = 1e-10;
  core::Config cfg = core::Config::cyclops(2, 2);
  cfg.max_supersteps = 40;
  core::Engine<algo::PageRankCyclops> engine(
      *g, partition::HashPartitioner{}.partition(*g, 4), pr, cfg);
  const metrics::RunStats stats = engine.run();
  const Pin got = pin_of(engine, stats);
  EXPECT_GT(got.message_spill_bytes, 0u);
  expect_pin(Pin{69276u, 4976u, 2048u, 362512u, 22657u, 12304u, 5220u, 280592u, 40u, 0xb75685c08d696f1bull, 0x28e91ad64cb00893ull}, got);
}

TEST(EnginePins, CyclopsMtSssp) {
  const auto g = stream_store(graph::gen::road_grid({24, 24, 0.1}, 3));
  algo::SsspCyclops sssp;
  sssp.source = 0;
  core::Config cfg = core::Config::cyclops_mt(2, 4, 2);
  cfg.max_supersteps = 300;
  core::Engine<algo::SsspCyclops> engine(
      *g, partition::HashPartitioner{}.partition(*g, 2), sssp, cfg);
  const metrics::RunStats stats = engine.run();
  const Pin got = pin_of(engine, stats);
  EXPECT_GT(got.message_spill_bytes, 0u);
  expect_pin(Pin{71616u, 4248u, 2048u, 24912u, 1557u, 13840u, 44672u, 5072u, 27u, 0xb63dbdd1dadf555aull, 0x6fc83d62a58e5ac3ull}, got);
}

TEST(EnginePins, GasPageRank) {
  const auto g = stream_store(graph::gen::rmat(9, 3000, 17));
  algo::PageRankGas pr;
  pr.num_vertices = g->num_vertices();
  pr.epsilon = 1e-10;
  gas::Config cfg = gas::Config::workers(3);
  cfg.max_iterations = 40;
  gas::Engine<algo::PageRankGas> engine(*g, partition::RandomVertexCut{}.partition(*g, 3),
                                        pr, cfg);
  const metrics::RunStats stats = engine.run();
  const Pin got = pin_of(engine, stats);
  EXPECT_GT(got.message_spill_bytes, 0u);
  expect_pin(Pin{59520u, 8048u, 2048u, 1005752u, 94534u, 12304u, 5220u, 699132u, 40u, 0xd8e4afc19c27a17aull, 0x34a64e0d6344ba96ull}, got);
}

/// One superstep's modeled times as raw bits, so equality means bit-identical.
std::array<std::uint64_t, 6> modeled_bits(const metrics::SuperstepStats& s) {
  return {std::bit_cast<std::uint64_t>(s.phases.prs_s),
          std::bit_cast<std::uint64_t>(s.phases.cmp_s),
          std::bit_cast<std::uint64_t>(s.phases.snd_s),
          std::bit_cast<std::uint64_t>(s.phases.syn_s),
          std::bit_cast<std::uint64_t>(s.modeled_comm_s),
          std::bit_cast<std::uint64_t>(s.modeled_barrier_s)};
}

/// Runs two engines built by `make` from one config and compares every
/// modeled time they report.
template <typename Make>
void expect_modeled_clock_repeats(Make make) {
  const metrics::RunStats a = make()->run();
  const metrics::RunStats b = make()->run();
  ASSERT_EQ(a.supersteps.size(), b.supersteps.size());
  ASSERT_GT(a.supersteps.size(), 1u);
  for (std::size_t i = 0; i < a.supersteps.size(); ++i) {
    EXPECT_EQ(modeled_bits(a.supersteps[i]), modeled_bits(b.supersteps[i]))
        << "superstep " << i;
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.total_time_s()),
            std::bit_cast<std::uint64_t>(b.total_time_s()));
}

TEST(ModeledClock, BspPageRankRepeatsBitForBit) {
  const graph::Csr g = graph::Csr::build(graph::gen::rmat(9, 3000, 17));
  algo::PageRankBsp pr;
  pr.epsilon = 1e-10;
  bsp::Config cfg = bsp::Config::workers(4);
  cfg.max_supersteps = 40;
  expect_modeled_clock_repeats([&] {
    return std::make_unique<bsp::Engine<algo::PageRankBsp>>(g, test::hash_partition(g, 4),
                                                            pr, cfg);
  });
}

TEST(ModeledClock, CyclopsPageRankRepeatsBitForBit) {
  const graph::Csr g = graph::Csr::build(graph::gen::rmat(9, 3000, 17));
  algo::PageRankCyclops pr;
  pr.epsilon = 1e-10;
  core::Config cfg = core::Config::cyclops(2, 2);
  cfg.max_supersteps = 40;
  expect_modeled_clock_repeats([&] {
    return std::make_unique<core::Engine<algo::PageRankCyclops>>(
        g, test::hash_partition(g, 4), pr, cfg);
  });
}

TEST(ModeledClock, CyclopsMtSsspRepeatsBitForBit) {
  const graph::Csr g = graph::Csr::build(graph::gen::road_grid({24, 24, 0.1}, 3));
  algo::SsspCyclops sssp;
  sssp.source = 0;
  core::Config cfg = core::Config::cyclops_mt(2, 4, 2);
  cfg.max_supersteps = 300;
  expect_modeled_clock_repeats([&] {
    return std::make_unique<core::Engine<algo::SsspCyclops>>(g, test::hash_partition(g, 2),
                                                             sssp, cfg);
  });
}

}  // namespace
}  // namespace cyclops
