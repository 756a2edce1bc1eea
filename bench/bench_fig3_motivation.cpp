// Figure 3 — the §2.2 motivation experiment: PageRank on the GWeb stand-in
// under the BSP model. (1) vertices converged per superstep, (2) ratio of
// redundant messages per superstep, (3) final per-vertex error distribution
// (ranked by importance) when the *global* error bound is reached — showing
// that important vertices are still unconverged while converged ones keep
// computing.

#include <cmath>
#include <cstdio>

#include "cyclops/graph/csr.hpp"
#include "cyclops/algorithms/pagerank.hpp"
#include "cyclops/bsp/engine.hpp"
#include "cyclops/common/table.hpp"
#include "cyclops/metrics/convergence.hpp"
#include "harness.hpp"

int main() {
  using namespace cyclops;
  using namespace cyclops::bench;

  const algo::Dataset gweb = algo::make_gweb();
  const graph::Csr g = graph::Csr::build(gweb.edges);
  std::printf("Dataset: %s\n", gweb.describe().c_str());
  const auto reference = algo::pagerank_reference(g);

  algo::PageRankBsp prog;
  // The paper uses e=1e-10 on graphs whose ranks are ~1e-6; the stand-in has
  // ~40x fewer vertices, so thresholds scale accordingly (see EXPERIMENTS.md).
  prog.epsilon = 1e-8;                 // global average-error stop bound
  prog.redundancy_rel_epsilon = 1e-4;  // information-free re-sends
  bsp::Config cfg;
  cfg.topo = sim::Topology{6, 8};
  cfg.max_supersteps = 35;  // the figure's horizon
  cfg.track_redundant = true;
  bsp::Engine<algo::PageRankBsp> engine(g, make_edge_cut(g, RunOptions{}, 48), prog, cfg);

  // Per-superstep convergence measured against the reference fixpoint: a
  // vertex "converged at superstep s" when |value - ref| first drops below
  // the local epsilon.
  const double local_eps = 1e-6;  // per-vertex convergence, rank-scale adjusted
  std::vector<Superstep> converged_at(g.num_vertices(), ~Superstep{0});
  engine.set_observer([&](const metrics::SuperstepStats& step,
                          std::span<const double> values) {
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (converged_at[v] == ~Superstep{0} &&
          std::abs(values[v] - reference[v]) <= local_eps) {
        converged_at[v] = step.superstep;
      }
    }
  });
  const auto stats = engine.run();

  // --- Fig 3(1): vertices newly converged per superstep. ---
  {
    Table t({"superstep", "newly_converged", "cumulative"});
    std::vector<std::uint64_t> per_step(stats.supersteps.size() + 1, 0);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (converged_at[v] != ~Superstep{0}) ++per_step[converged_at[v]];
    }
    std::uint64_t cumulative = 0;
    for (std::size_t s = 0; s < stats.supersteps.size(); ++s) {
      cumulative += per_step[s];
      t.add_row({Table::fmt_int(static_cast<long long>(s)),
                 Table::fmt_int(static_cast<long long>(per_step[s])),
                 Table::fmt_int(static_cast<long long>(cumulative))});
    }
    std::fputs(t.render("Figure 3(1): vertices converged per superstep "
                        "(paper: ~20% within 2 supersteps, majority by 16)")
                   .c_str(),
               stdout);
  }

  // --- Fig 3(2): redundant message ratio per superstep. ---
  {
    Table t({"superstep", "messages", "redundant", "ratio"});
    for (const auto& s : stats.supersteps) {
      const auto msgs = s.net.total_messages();
      t.add_row({Table::fmt_int(s.superstep),
                 Table::fmt_int(static_cast<long long>(msgs)),
                 Table::fmt_int(static_cast<long long>(s.redundant_messages)),
                 Table::fmt(msgs > 0 ? static_cast<double>(s.redundant_messages) /
                                           static_cast<double>(msgs)
                                     : 0.0,
                            3)});
    }
    std::fputs(t.render("Figure 3(2): redundant-message ratio per superstep "
                        "(paper: >30% after superstep 14)")
                   .c_str(),
               stdout);
  }

  // --- Fig 3(3): final error by rank-importance decile. ---
  {
    const auto ranked =
        metrics::ranked_errors(reference, std::vector<double>(engine.values().begin(),
                                                              engine.values().end()));
    Table t({"importance_decile", "max_error", "mean_error", "unconverged(>eps)"});
    const std::size_t decile = std::max<std::size_t>(1, ranked.size() / 10);
    for (int d = 0; d < 10; ++d) {
      const std::size_t begin = d * decile;
      const std::size_t end = std::min(ranked.size(), begin + decile);
      double max_err = 0, sum = 0;
      std::size_t unconverged = 0;
      for (std::size_t i = begin; i < end; ++i) {
        max_err = std::max(max_err, ranked[i].second);
        sum += ranked[i].second;
        unconverged += ranked[i].second > local_eps;
      }
      t.add_row({Table::fmt_int(d + 1), Table::fmt(max_err, 14),
                 Table::fmt(sum / std::max<std::size_t>(1, end - begin), 14),
                 Table::fmt_int(static_cast<long long>(unconverged))});
    }
    std::fputs(t.render("Figure 3(3): final error by importance decile (paper: "
                        "unconverged vertices concentrate in the top deciles)")
                   .c_str(),
               stdout);
  }
  return 0;
}
