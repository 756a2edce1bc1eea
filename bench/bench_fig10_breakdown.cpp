// Figure 10 — (1) execution-time breakdown (SYN/PRS/CMP/SND) for all seven
// benchmarks on Hama, Cyclops and CyclopsMT with 48 workers; (2) active
// vertices per superstep and (3) messages per superstep for PageRank on the
// GWeb stand-in, Hama vs Cyclops.

#include <cstdio>

#include "cyclops/graph/csr.hpp"
#include "cyclops/common/table.hpp"
#include "cyclops/metrics/reporter.hpp"
#include "harness.hpp"

int main() {
  using namespace cyclops;
  using namespace cyclops::bench;

  const auto datasets = algo::make_all_datasets();
  RunOptions opts;
  opts.workers = 48;

  // --- Fig 10(1): normalized breakdown per benchmark and engine. ---
  std::puts("Figure 10(1): execution-time breakdown, 48 workers");
  std::puts("(paper: Hama dominated by SND+PRS; Cyclops/CyclopsMT by CMP)");
  for (const auto& d : datasets) {
    const graph::Csr g = graph::Csr::build(d.edges);
    for (algo::EngineKind kind :
         {algo::EngineKind::kHama, algo::EngineKind::kCyclops, algo::EngineKind::kCyclopsMT}) {
      const CellResult r = run_cell(d, g, kind, opts);
      const std::string label = std::string(d.name) + "/" + algo::label(kind);
      std::printf("%s\n", metrics::phase_breakdown_row(label, r.stats, true).c_str());
    }
  }

  // --- Fig 10(2)+(3): per-superstep series on GWeb. ---
  const algo::Dataset gweb = algo::make_gweb();
  const graph::Csr g = graph::Csr::build(gweb.edges);
  RunOptions series = opts;
  series.max_supersteps = 30;
  const CellResult hama = run_cell(gweb, g, algo::EngineKind::kHama, series);
  const CellResult cy = run_cell(gweb, g, algo::EngineKind::kCyclops, series);

  Table t({"superstep", "Hama active", "Cyclops active", "Hama msgs", "Cyclops msgs"});
  const std::size_t steps =
      std::max(hama.stats.supersteps.size(), cy.stats.supersteps.size());
  for (std::size_t s = 0; s < steps; ++s) {
    auto cell = [&](const CellResult& r, bool active) -> std::string {
      if (s >= r.stats.supersteps.size()) return "-";
      const auto& step = r.stats.supersteps[s];
      return Table::fmt_int(static_cast<long long>(
          active ? step.active_vertices : step.net.total_messages()));
    };
    t.add_row({Table::fmt_int(static_cast<long long>(s)), cell(hama, true),
               cell(cy, true), cell(hama, false), cell(cy, false)});
  }
  std::fputs(t.render("Figure 10(2)/(3): active vertices and messages per superstep, "
                      "PageRank on GWeb (paper: Cyclops decays, Hama stays flat)")
                 .c_str(),
             stdout);
  return 0;
}
