// Figure 9 — (1) speedup of Cyclops and CyclopsMT over Hama with 48 workers
// across all seven benchmarks, and (2) scalability with 6/12/24/48 workers
// (normalized to Hama with 6 workers). Hash partitioning, as in the paper's
// default configuration.

#include <cstdio>
#include <string>

#include "cyclops/graph/csr.hpp"
#include "cyclops/common/table.hpp"
#include "harness.hpp"

namespace {

using namespace cyclops;
using namespace cyclops::bench;

// Paper-reported speedups at 48 workers (hash partition) where §6.3 states
// them explicitly; "-" where the figure is only graphical.
struct PaperRef {
  const char* dataset;
  const char* cyclops;
  const char* cyclops_mt;
};
constexpr PaperRef kPaperFig9[] = {
    {"Amazon", "~2.1x", "~3x"},   {"GWeb", "~2.5x", "~4x"},
    {"LJournal", "~4x", "~7x"},   {"Wiki", "5.03x", "8.69x"},
    {"SYN-GL", "3.48x", "5.60x"}, {"DBLP", "2.55x", "5.54x"},
    {"RoadCA", "1.33x", "2.06x"},
};

void fig9_1(const std::vector<algo::Dataset>& datasets) {
  Table table({"benchmark", "dataset", "Hama(s)", "Cyclops(s)", "speedup",
               "CyclopsMT(s)", "speedup", "paper Cy", "paper MT"});
  RunOptions opts;
  opts.workers = 48;
  for (std::size_t i = 0; i < datasets.size(); ++i) {
    const auto& d = datasets[i];
    const graph::Csr g = graph::Csr::build(d.edges);
    const CellResult hama = run_cell(d, g, algo::EngineKind::kHama, opts);
    const CellResult cy = run_cell(d, g, algo::EngineKind::kCyclops, opts);
    const CellResult mt = run_cell(d, g, algo::EngineKind::kCyclopsMT, opts);
    table.add_row({algo::label(d.workload), d.name, Table::fmt(hama.total_s, 3),
                   Table::fmt(cy.total_s, 3), Table::fmt(cy.speedup_over(hama), 2) + "x",
                   Table::fmt(mt.total_s, 3), Table::fmt(mt.speedup_over(hama), 2) + "x",
                   kPaperFig9[i].cyclops, kPaperFig9[i].cyclops_mt});
  }
  std::fputs(table.render("Figure 9(1): speedup over Hama, 48 workers, hash partition")
                 .c_str(),
             stdout);
}

void fig9_2(const std::vector<algo::Dataset>& datasets) {
  Table table({"benchmark", "dataset", "workers", "Hama", "Cyclops", "CyclopsMT"});
  for (const auto& d : datasets) {
    const graph::Csr g = graph::Csr::build(d.edges);
    double hama_base = 0;
    for (WorkerId workers : {6u, 12u, 24u, 48u}) {
      RunOptions opts;
      opts.workers = workers;
      const CellResult hama = run_cell(d, g, algo::EngineKind::kHama, opts);
      const CellResult cy = run_cell(d, g, algo::EngineKind::kCyclops, opts);
      const CellResult mt = run_cell(d, g, algo::EngineKind::kCyclopsMT, opts);
      if (workers == 6) hama_base = hama.total_s;
      auto norm = [&](const CellResult& r) {
        return Table::fmt(r.total_s > 0 ? hama_base / r.total_s : 0.0, 2) + "x";
      };
      table.add_row({algo::label(d.workload), d.name, Table::fmt_int(workers),
                     norm(hama), norm(cy), norm(mt)});
    }
  }
  std::fputs(
      table
          .render(
              "Figure 9(2): scalability, speedup normalized to Hama with 6 workers")
          .c_str(),
      stdout);
}

}  // namespace

int main(int argc, char** argv) {
  cyclops::args::Parser p(argc, argv);
  const bool scalability_only = p.flag("--scalability");
  p.finish();
  const auto datasets = cyclops::algo::make_all_datasets();
  std::puts("Datasets (paper-scale -> stand-in scale):");
  for (const auto& d : datasets) std::printf("  %s\n", d.describe().c_str());
  if (!scalability_only) fig9_1(datasets);
  fig9_2(datasets);
  return 0;
}
