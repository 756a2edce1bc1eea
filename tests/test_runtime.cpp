// Tests for the shared engine runtime layer: typed sync channels round-trip
// records through the fabric with byte counts matching the modeled traffic,
// the engine shell owns the superstep loop/counter/checkpoints, exchange accounting
// centralizes the counters engines used to duplicate. That the three
// execution models on that runtime agree on results is the differential
// harness's EngineEquivalence.* (test_differential.cpp).

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cyclops/graph/csr.hpp"
#include "cyclops/algorithms/pagerank.hpp"
#include "cyclops/algorithms/sssp.hpp"
#include "cyclops/bsp/engine.hpp"
#include "cyclops/core/engine.hpp"
#include "cyclops/gas/engine.hpp"
#include "cyclops/graph/generators.hpp"
#include "cyclops/partition/vertex_cut.hpp"
#include "cyclops/runtime/engine_shell.hpp"
#include "cyclops/runtime/exchange_accounting.hpp"
#include "cyclops/runtime/recovery.hpp"
#include "cyclops/runtime/sync_channel.hpp"
#include "test_util.hpp"

namespace cyclops {
namespace {

struct TestRecord {
  std::uint32_t id;
  double payload;
};

sim::Fabric make_fabric(WorkerId workers) {
  return sim::Fabric(sim::Topology{workers, 1}, sim::CostModel::zero());
}

TEST(SyncChannel, RoundTripPreservesRecordsAndCountsBytes) {
  using Channel = runtime::SyncChannel<TestRecord>;
  sim::Fabric fabric = make_fabric(3);

  auto sender = Channel::sender(fabric, 0);
  std::vector<TestRecord> to_one, to_two;
  for (std::uint32_t i = 0; i < 57; ++i) to_one.push_back({i, i * 1.5});
  for (std::uint32_t i = 0; i < 13; ++i) to_two.push_back({1000 + i, -1.0 * i});

  sender.reserve(1, to_one.size());
  for (const TestRecord& r : to_one) sender.send(1, r);
  sender.reserve(2, to_two.size());
  for (const TestRecord& r : to_two) sender.send(2, r);

  const sim::ExchangeStats x = fabric.exchange(3);
  const std::uint64_t n = to_one.size() + to_two.size();
  EXPECT_EQ(x.net.total_messages(), n);
  EXPECT_EQ(x.net.total_bytes(), n * sizeof(TestRecord));
  EXPECT_EQ(x.net.packages, 2u);

  std::vector<TestRecord> got_one, got_two;
  Channel::drain(fabric, 1, [&](const TestRecord& r) { got_one.push_back(r); });
  Channel::drain(fabric, 2, [&](const TestRecord& r) { got_two.push_back(r); });
  ASSERT_EQ(got_one.size(), to_one.size());
  ASSERT_EQ(got_two.size(), to_two.size());
  for (std::size_t i = 0; i < to_one.size(); ++i) {
    EXPECT_EQ(got_one[i].id, to_one[i].id);
    EXPECT_EQ(got_one[i].payload, to_one[i].payload);
  }
  for (std::size_t i = 0; i < to_two.size(); ++i) {
    EXPECT_EQ(got_two[i].id, to_two[i].id);
    EXPECT_EQ(got_two[i].payload, to_two[i].payload);
  }
  // drain() clears the inbox.
  EXPECT_TRUE(fabric.incoming(1).empty());
  EXPECT_TRUE(fabric.incoming(2).empty());
}

TEST(SyncChannel, ReserveDoesNotChangeModeledTraffic) {
  using Channel = runtime::SyncChannel<TestRecord>;
  sim::Fabric with_reserve = make_fabric(2);
  sim::Fabric without_reserve = make_fabric(2);

  auto a = Channel::sender(with_reserve, 0);
  a.reserve(1, 41);
  for (std::uint32_t i = 0; i < 41; ++i) a.send(1, {i, 2.0 * i});
  auto b = Channel::sender(without_reserve, 0);
  for (std::uint32_t i = 0; i < 41; ++i) b.send(1, {i, 2.0 * i});

  const sim::NetSnapshot na = with_reserve.exchange(2).net;
  const sim::NetSnapshot nb = without_reserve.exchange(2).net;
  EXPECT_EQ(na.total_messages(), nb.total_messages());
  EXPECT_EQ(na.total_bytes(), nb.total_bytes());
  EXPECT_EQ(na.packages, nb.packages);
}

TEST(SyncChannel, PackageReaderHandlesInterleavedRecordTypes) {
  // The GAS apply+scatter exchange interleaves two record types on one lane;
  // PackageReader is the typed escape hatch for such streams.
  struct Small {
    std::uint32_t tag;
  };
  sim::Fabric fabric = make_fabric(2);
  auto big = runtime::SyncChannel<TestRecord>::sender(fabric, 0);
  auto small = runtime::SyncChannel<Small>::sender(fabric, 0);
  for (std::uint32_t i = 0; i < 9; ++i) {
    big.send(1, {i, 0.5 * i});
    small.send(1, {i + 100});
  }
  (void)fabric.exchange(2);

  std::uint32_t seen = 0;
  for (const sim::Package& pkg : fabric.incoming(1)) {
    runtime::PackageReader reader(pkg);
    while (!reader.exhausted()) {
      const auto rec = reader.read<TestRecord>();
      const auto tag = reader.read<Small>();
      EXPECT_EQ(rec.id, seen);
      EXPECT_EQ(rec.payload, 0.5 * seen);
      EXPECT_EQ(tag.tag, seen + 100);
      ++seen;
    }
  }
  EXPECT_EQ(seen, 9u);
}

// The smallest engine on the shell: every superstep charges 0.5 s of
// compute and asks `stop` whether the computation has terminated; a
// checkpoint frame holds just the superstep counter.
struct LoopConfig : runtime::EngineConfig {
  Superstep max_supersteps = 100;
};

class LoopEngine : public runtime::EngineShell<LoopEngine, LoopConfig> {
  using Shell = runtime::EngineShell<LoopEngine, LoopConfig>;
  friend Shell;

 public:
  static constexpr runtime::CheckpointMode kCheckpointMode =
      runtime::CheckpointMode::kLightweight;
  static constexpr sim::CostModel kCost = sim::CostModel::zero();
  static constexpr bool kWireIsChurn = true;

  explicit LoopEngine(Superstep cap, std::function<bool(Superstep)> stop = {})
      : Shell(config_for(cap), 0), stop_(std::move(stop)) {}

  using Shell::set_superstep;

 private:
  static LoopConfig config_for(Superstep cap) {
    LoopConfig c;
    c.topo = sim::Topology{1, 1};
    c.max_supersteps = cap;
    return c;
  }

  bool run_superstep(metrics::SuperstepStats& s) {
    ledger_.charge_compute(0, 0.5e6);
    return stop_ && stop_(s.superstep);
  }
  void checkpoint_machine(MachineId, ByteWriter& out, runtime::CheckpointMode) const {
    out.write(superstep());
  }
  void restore_machine(MachineId, ByteReader& in) { set_superstep(in.read<Superstep>()); }
  void after_restore() {}

  std::function<bool(Superstep)> stop_;
};

TEST(SuperstepDriver, RunsUntilCapAndAccumulatesElapsed) {
  LoopEngine engine(5);
  std::vector<Superstep> notified;
  engine.set_observer([&](const metrics::SuperstepStats& s, const LoopEngine&) {
    notified.push_back(s.superstep);
  });
  const metrics::RunStats stats = engine.run();
  EXPECT_EQ(stats.supersteps.size(), 5u);
  EXPECT_EQ(engine.superstep(), 5u);
  EXPECT_DOUBLE_EQ(stats.phase_totals().total_s(), 2.5);
  EXPECT_EQ(notified, (std::vector<Superstep>{0, 1, 2, 3, 4}));
}

TEST(SuperstepDriver, StopsWhenStepReportsTermination) {
  LoopEngine engine(100, [](Superstep s) { return s == 2; });
  const metrics::RunStats stats = engine.run();
  EXPECT_EQ(stats.supersteps.size(), 3u);
  EXPECT_EQ(engine.superstep(), 3u);
}

TEST(SuperstepDriver, SetSuperstepRepositionsForRestore) {
  LoopEngine engine(10);
  engine.set_superstep(7);
  EXPECT_EQ(engine.superstep(), 7u);
  const metrics::RunStats stats = engine.run();
  ASSERT_EQ(stats.supersteps.size(), 3u);
  EXPECT_EQ(stats.supersteps.front().superstep, 7u);
  EXPECT_EQ(engine.superstep(), 10u);
}

// A fault-free run of S supersteps with checkpoint_every k takes a
// checkpoint at every multiple of k below S and none after the last
// superstep, whether the cap or the engine's own stop rule ends the run:
// floor((S - 1) / k) in all.
TEST(EngineShell, CheckpointCadenceIsExact) {
  for (const Superstep s : {1u, 2u, 5u, 9u, 10u, 12u}) {
    for (const Superstep k : {1u, 2u, 3u, 5u, 12u}) {
      runtime::RecoveryOptions opts;
      opts.checkpoint_every = k;
      const auto capped =
          runtime::run_with_recovery([&] { return std::make_unique<LoopEngine>(s); }, opts);
      const auto stopped = runtime::run_with_recovery(
          [&] {
            return std::make_unique<LoopEngine>(100, [s](Superstep at) { return at + 1 == s; });
          },
          opts);
      for (const auto* outcome : {&capped, &stopped}) {
        ASSERT_EQ(outcome->run.supersteps.size(), s);
        EXPECT_EQ(outcome->recovery.checkpoints_taken, (s - 1) / k) << "S=" << s << " k=" << k;
      }
    }
  }
}

TEST(ExchangeAccounting, TracksPeakChurnAndMessages) {
  runtime::ExchangeAccounting acct;
  sim::ExchangeStats x1, x2;
  x1.peak_buffered_bytes = 100;
  x2.peak_buffered_bytes = 40;
  acct.note_exchange(x1);
  acct.note_exchange(x2);
  EXPECT_EQ(acct.peak_buffered_bytes(), 100u);  // high-water mark, not sum

  sim::NetSnapshot net;
  net.remote_messages = 2;
  net.local_messages = 1;
  net.remote_bytes = 10;
  net.local_bytes = 5;
  acct.note_net(net);
  EXPECT_EQ(acct.churn_bytes(), 15u);
  EXPECT_EQ(acct.messages(), 3u);

  acct.add_churn_bytes(5);
  acct.add_messages(2);
  EXPECT_EQ(acct.churn_bytes(), 20u);
  EXPECT_EQ(acct.messages(), 5u);
}

// The shell owns the observer: every engine calls it once per superstep, in
// order, with the engine itself, so one generic observer reads values() from
// any of them.
template <typename Engine>
void expect_observer_sees_every_superstep(Engine& engine,
                                          const std::vector<double>& reference) {
  std::vector<Superstep> seen;
  std::vector<double> last;
  engine.set_observer([&](const metrics::SuperstepStats& s, const auto& e) {
    EXPECT_EQ(&e, &engine);
    seen.push_back(s.superstep);
    const auto values = e.values();
    last.assign(values.begin(), values.end());
  });
  const auto stats = engine.run();
  ASSERT_EQ(seen.size(), stats.supersteps.size());
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], static_cast<Superstep>(i));
  EXPECT_EQ(last, reference);  // the last observation is the converged state
}

TEST(EngineShell, ObserverSeesEverySuperstepOnAllThreeEngines) {
  graph::gen::RoadSpec spec;
  spec.rows = 12;
  spec.cols = 12;
  const graph::Csr g = graph::Csr::build(graph::gen::road_grid(spec, 5));
  const std::vector<double> reference = algo::sssp_reference(g, 0);
  const auto part = test::hash_partition(g, 3);

  bsp::Config bsp_cfg = bsp::Config::workers(3);
  bsp_cfg.max_supersteps = 500;
  bsp::Engine<algo::SsspBsp> bsp_engine(g, part, algo::SsspBsp{}, bsp_cfg);
  expect_observer_sees_every_superstep(bsp_engine, reference);

  core::Config cyc_cfg = core::Config::cyclops(3, 1);
  cyc_cfg.max_supersteps = 500;
  core::Engine<algo::SsspCyclops> cyc_engine(g, part, algo::SsspCyclops{}, cyc_cfg);
  expect_observer_sees_every_superstep(cyc_engine, reference);

  gas::Config gas_cfg = gas::Config::workers(3);
  gas_cfg.max_iterations = 500;
  gas::Engine<algo::SsspGas> gas_engine(g, partition::RandomVertexCut{}.partition(g, 3),
                                        algo::SsspGas{}, gas_cfg);
  expect_observer_sees_every_superstep(gas_engine, reference);
}

}  // namespace
}  // namespace cyclops
