// Fault-tolerance tests (§3.6): snapshot durability through the filesystem,
// restore's rejection of foreign, truncated and bit-flipped snapshots, and
// the paper's claim that Cyclops checkpoints are smaller than Pregel's
// because replicas and messages are never saved. Recovery from a crash at
// any superstep is checked by the differential harness's fault axis
// (test_differential.cpp).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>

#include "cyclops/graph/csr.hpp"
#include "cyclops/algorithms/pagerank.hpp"
#include "cyclops/bsp/engine.hpp"
#include "cyclops/core/engine.hpp"
#include "cyclops/graph/generators.hpp"
#include "cyclops/runtime/checkpoint.hpp"
#include "test_util.hpp"

namespace cyclops {
namespace {

double max_abs_diff(std::span<const double> a, std::span<const double> b) {
  double m = 0;
  for (std::size_t i = 0; i < a.size(); ++i) m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

TEST(Checkpoint, SurvivesFilesystemRoundTrip) {
  const graph::Csr g = graph::Csr::build(graph::gen::rmat(8, 1500, 5));
  const auto part = test::hash_partition(g, 3);
  algo::PageRankCyclops pr;
  pr.epsilon = 1e-11;
  core::Config cfg = core::Config::cyclops(3, 1);
  cfg.max_supersteps = 10;
  core::Engine<algo::PageRankCyclops> engine(g, part, pr, cfg);
  (void)engine.run();

  ByteWriter snapshot;
  engine.checkpoint(snapshot);
  const std::string path = ::testing::TempDir() + "/cyclops_ckpt.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(snapshot.bytes().data()),
              static_cast<std::streamsize>(snapshot.size()));
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  ASSERT_EQ(bytes.size(), snapshot.size());

  core::Config cfg_full = cfg;
  cfg_full.max_supersteps = 200;
  core::Engine<algo::PageRankCyclops> restored(g, part, pr, cfg_full);
  ByteReader reader(bytes);
  restored.restore(reader);
  EXPECT_EQ(restored.superstep(), 10u);
  (void)restored.run();
  EXPECT_LT(max_abs_diff(restored.values(), algo::pagerank_reference(g)), 1e-7);
  std::remove(path.c_str());
}

TEST(Checkpoint, CyclopsSnapshotsSmallerThanBspMidRun) {
  // §3.6: Cyclops "does not require to save the replicas and messages" — at
  // a mid-run barrier with messages in flight, the BSP snapshot must be
  // strictly larger than the Cyclops one for the same graph and progress.
  const graph::Csr g = graph::Csr::build(graph::gen::rmat(10, 9000, 7));
  const auto part = test::hash_partition(g, 6);

  algo::PageRankBsp bsp_prog;
  bsp_prog.epsilon = 1e-11;
  bsp::Config bsp_cfg = bsp::Config::workers(6);
  bsp_cfg.max_supersteps = 5;  // mid-run: all vertices alive, wires full
  bsp::Engine<algo::PageRankBsp> bsp_engine(g, part, bsp_prog, bsp_cfg);
  (void)bsp_engine.run();
  ByteWriter bsp_snapshot;
  bsp_engine.checkpoint(bsp_snapshot);

  algo::PageRankCyclops cy_prog;
  cy_prog.epsilon = 1e-11;
  core::Config cy_cfg = core::Config::cyclops(6, 1);
  cy_cfg.max_supersteps = 5;
  core::Engine<algo::PageRankCyclops> cy_engine(g, part, cy_prog, cy_cfg);
  (void)cy_engine.run();
  ByteWriter cy_snapshot;
  cy_engine.checkpoint(cy_snapshot);

  EXPECT_LT(cy_snapshot.size(), bsp_snapshot.size());
}

TEST(Checkpoint, RestoreRejectsWrongGraph) {
  // A snapshot taken against another graph is a *recoverable* error: restore
  // throws SerializeError so recovery can fall back, instead of aborting.
  const graph::Csr g1 = graph::Csr::build(graph::gen::rmat(7, 600, 9));
  const graph::Csr g2 = graph::Csr::build(graph::gen::rmat(8, 1200, 9));
  algo::PageRankCyclops pr;
  core::Config cfg = core::Config::cyclops(2, 1);
  cfg.max_supersteps = 3;
  core::Engine<algo::PageRankCyclops> a(g1, test::hash_partition(g1, 2), pr, cfg);
  (void)a.run();
  ByteWriter snapshot;
  a.checkpoint(snapshot);

  core::Engine<algo::PageRankCyclops> b(g2, test::hash_partition(g2, 2), pr, cfg);
  ByteReader reader(snapshot.bytes());
  EXPECT_THROW(b.restore(reader), SerializeError);
}

TEST(Checkpoint, RestoreRejectsWrongEngine) {
  const graph::Csr g = graph::Csr::build(graph::gen::rmat(7, 600, 9));
  const auto part = test::hash_partition(g, 2);
  algo::PageRankBsp bsp_pr;
  bsp::Config bsp_cfg = bsp::Config::workers(2);
  bsp_cfg.max_supersteps = 3;
  bsp::Engine<algo::PageRankBsp> a(g, part, bsp_pr, bsp_cfg);
  (void)a.run();
  ByteWriter snapshot;
  a.checkpoint(snapshot);

  algo::PageRankCyclops cy_pr;
  core::Config cy_cfg = core::Config::cyclops(2, 1);
  core::Engine<algo::PageRankCyclops> b(g, part, cy_pr, cy_cfg);
  ByteReader reader(snapshot.bytes());
  EXPECT_THROW(b.restore(reader), SerializeError);
}

TEST(Checkpoint, TruncatedSnapshotIsRecoverable) {
  // Satellite: a truncated byte stream must throw SerializeError from the
  // ByteReader path (never CYCLOPS_CHECK-abort), at *every* cut point.
  const graph::Csr g = graph::Csr::build(graph::gen::rmat(7, 500, 21));
  const auto part = test::hash_partition(g, 2);
  algo::PageRankCyclops pr;
  core::Config cfg = core::Config::cyclops(2, 1);
  cfg.max_supersteps = 4;
  core::Engine<algo::PageRankCyclops> engine(g, part, pr, cfg);
  (void)engine.run();
  ByteWriter snapshot;
  engine.checkpoint(snapshot);

  const auto& bytes = snapshot.bytes();
  for (std::size_t cut : {std::size_t{0}, std::size_t{1}, bytes.size() / 4,
                          bytes.size() / 2, bytes.size() - 1}) {
    core::Engine<algo::PageRankCyclops> fresh(g, part, pr, cfg);
    ByteReader reader(std::span<const std::uint8_t>(bytes.data(), cut));
    EXPECT_THROW(fresh.restore(reader), SerializeError) << "cut at " << cut;
  }
}

TEST(Checkpoint, SealedFrameDetectsBitFlips) {
  // Satellite: bit flips at rest are caught by the snapshot frame's CRC and
  // surface as SerializeError through open_snapshot.
  const graph::Csr g = graph::Csr::build(graph::gen::rmat(7, 500, 22));
  const auto part = test::hash_partition(g, 2);
  algo::PageRankCyclops pr;
  core::Config cfg = core::Config::cyclops(2, 1);
  cfg.max_supersteps = 4;
  core::Engine<algo::PageRankCyclops> engine(g, part, pr, cfg);
  (void)engine.run();
  ByteWriter snapshot;
  engine.checkpoint(snapshot);

  const std::vector<std::uint8_t> sealed = runtime::seal_snapshot(snapshot.bytes());
  EXPECT_EQ(runtime::open_snapshot(sealed), snapshot.bytes());  // clean round trip

  for (std::size_t i : {std::size_t{16}, sealed.size() / 2, sealed.size() - 1}) {
    std::vector<std::uint8_t> flipped = sealed;
    flipped[i] ^= 0x10;
    EXPECT_THROW((void)runtime::open_snapshot(flipped), SerializeError)
        << "flip at " << i;
  }
  // Truncated frames are equally recoverable.
  std::vector<std::uint8_t> cut(sealed.begin(), sealed.begin() + sealed.size() / 2);
  EXPECT_THROW((void)runtime::open_snapshot(cut), SerializeError);
}

}  // namespace
}  // namespace cyclops
