// Figure 13 — (1) graph ingress time breakdown (load / replicate / init) for
// Hama vs Cyclops on all seven datasets, (2) CyclopsMT execution time as the
// ALS input grows (scale-with-graph-size), (3) L1-norm distance to the final
// PageRank over time for Hama, Cyclops and CyclopsMT on GWeb.

#include <cstdio>

#include "cyclops/graph/csr.hpp"
#include "cyclops/algorithms/pagerank.hpp"
#include "cyclops/common/table.hpp"
#include "cyclops/common/timer.hpp"
#include "cyclops/core/layout.hpp"
#include "cyclops/graph/generators.hpp"
#include "cyclops/metrics/convergence.hpp"
#include "harness.hpp"

namespace {
using namespace cyclops;
using namespace cyclops::bench;

void fig13_1(const std::vector<algo::Dataset>& datasets) {
  Table t({"dataset", "LD(s)", "REP(s)", "INIT(s)", "TOT Hama(s)", "TOT Cyclops(s)"});
  for (const auto& d : datasets) {
    // LD: text-free in-memory build (CSR construction stands in for the HDFS
    // load + vertex distribution both systems share).
    Timer ld;
    const graph::Csr g = graph::Csr::build(d.edges);
    const double ld_s = ld.elapsed_s();
    const auto part = partition::HashPartitioner{}.partition(g, 48);
    // Hama ingress = LD only (no replicas); Cyclops adds REP + INIT.
    const core::Layout layout = core::build_layout(g, part);
    t.add_row({d.name, Table::fmt(ld_s, 3), Table::fmt(layout.replicate_s, 3),
               Table::fmt(layout.init_s, 3), Table::fmt(ld_s, 3),
               Table::fmt(ld_s + layout.replicate_s + layout.init_s, 3)});
  }
  std::fputs(t.render("Figure 13(1): ingress time breakdown (paper: Cyclops pays a "
                      "modest one-time replication cost over Hama)")
                 .c_str(),
             stdout);
}

void fig13_2() {
  // Paper sweeps ALS from 0.34M to 20.2M edges; scaled here by the same 59x
  // span starting from a smaller base.
  Table t({"edges", "CyclopsMT time(s)", "Hama time(s)"});
  for (double factor : {0.125, 0.25, 0.5, 1.0, 2.0}) {
    algo::DatasetScale scale;
    scale.factor = factor;
    const algo::Dataset d = algo::make_syn_gl(scale);
    const graph::Csr g = graph::Csr::build(d.edges);
    RunOptions opts;
    opts.workers = 48;
    const CellResult mt = run_cell(d, g, EngineKind::kCyclopsMT, opts);
    const CellResult hama = run_cell(d, g, EngineKind::kHama, opts);
    t.add_row({Table::fmt_int(static_cast<long long>(d.edges.num_edges())),
               Table::fmt(mt.total_s, 3), Table::fmt(hama.total_s, 3)});
  }
  std::fputs(t.render("Figure 13(2): ALS execution time vs graph size "
                      "(paper: near-linear growth, 9.6s@0.34M -> 207.7s@20.2M)")
                 .c_str(),
             stdout);
}

void fig13_3() {
  const algo::Dataset gweb = algo::make_gweb();
  const graph::Csr g = graph::Csr::build(gweb.edges);
  const auto reference = algo::pagerank_reference(g);

  struct Series {
    const char* name;
    std::vector<metrics::ConvergenceTracker::Point> points;
  };
  std::vector<Series> series;

  {  // Hama
    algo::PageRankBsp prog;
    prog.epsilon = 1e-10;
    bsp::Config cfg;
    cfg.topo = sim::Topology{6, 8};
    cfg.max_supersteps = 30;
    bsp::Engine<algo::PageRankBsp> engine(
        g, partition::HashPartitioner{}.partition(g, 48), prog, cfg);
    metrics::ConvergenceTracker tracker(reference);
    double clock = 0;
    engine.set_observer([&](const metrics::SuperstepStats& s, std::span<const double> v) {
      clock += s.total_time_s();
      tracker.sample(clock, v);
    });
    (void)engine.run();
    series.push_back({"Hama", tracker.points()});
  }
  for (bool mt : {false, true}) {
    algo::PageRankCyclops prog;
    prog.epsilon = 1e-10;
    core::Config cfg = mt ? core::Config::cyclops_mt(6, 8, 2) : core::Config::cyclops(6, 8);
    cfg.max_supersteps = 30;
    const WorkerId parts = cfg.topo.total_workers();
    core::Engine<algo::PageRankCyclops> engine(
        g, partition::HashPartitioner{}.partition(g, parts), prog, cfg);
    metrics::ConvergenceTracker tracker(reference);
    double clock = 0;
    engine.set_observer([&](const metrics::SuperstepStats& s,
                            const core::Engine<algo::PageRankCyclops>& e) {
      clock += s.total_time_s();
      tracker.sample(clock, e.values());
    });
    (void)engine.run();
    series.push_back({mt ? "CyclopsMT" : "Cyclops", tracker.points()});
  }

  Table t({"series", "superstep", "elapsed(s)", "L1-norm distance"});
  for (const auto& s : series) {
    for (std::size_t i = 0; i < s.points.size(); ++i) {
      t.add_row({s.name, Table::fmt_int(static_cast<long long>(i)),
                 Table::fmt(s.points[i].elapsed_s, 4), Table::fmt(s.points[i].l1, 9)});
    }
  }
  std::fputs(t.render("Figure 13(3): L1-norm distance to final PageRank over time "
                      "(paper: Cyclops/CyclopsMT converge markedly faster than Hama)")
                 .c_str(),
             stdout);
}

}  // namespace

int main() {
  const auto datasets = cyclops::algo::make_all_datasets();
  fig13_1(datasets);
  fig13_2();
  fig13_3();
  return 0;
}
