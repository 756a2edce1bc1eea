// Figure 11 — the partitioning study: (1) replication factor vs number of
// partitions on the Wiki stand-in (hash vs Metis-like multilevel),
// (2) replication factor per dataset at 48 partitions, (3) engine speedups
// under the multilevel partition (normalized to Hama under the same
// partition).

#include <cstdio>
#include <string>

#include "cyclops/graph/csr.hpp"
#include "cyclops/common/table.hpp"
#include "cyclops/partition/multilevel.hpp"
#include "cyclops/partition/partition.hpp"
#include "harness.hpp"

int main(int argc, char** argv) {
  using namespace cyclops;
  using namespace cyclops::bench;
  args::Parser p(argc, argv);
  const bool perf_only = p.flag("--perf");
  p.finish();

  const auto datasets = algo::make_all_datasets();

  if (!perf_only) {
    // --- Fig 11(1): replication factor vs #partitions on Wiki. ---
    const algo::Dataset wiki = algo::make_wiki();
    const graph::Csr g = graph::Csr::build(wiki.edges);
    Table t1({"partitions", "hash", "multilevel(metis)"});
    for (WorkerId parts : {6u, 12u, 24u, 48u}) {
      const auto hash_q =
          partition::evaluate(g, partition::HashPartitioner{}.partition(g, parts));
      const auto ml_q =
          partition::evaluate(g, partition::MultilevelPartitioner{}.partition(g, parts));
      t1.add_row({Table::fmt_int(parts), Table::fmt(hash_q.replication_factor, 2),
                  Table::fmt(ml_q.replication_factor, 2)});
    }
    std::fputs(t1.render("Figure 11(1): replication factor vs partitions, Wiki "
                         "(paper: hash approaches avg degree; Metis much lower)")
                   .c_str(),
               stdout);

    // --- Fig 11(2): replication factor per dataset at 48 partitions. ---
    Table t2({"dataset", "hash", "multilevel(metis)"});
    for (const auto& d : datasets) {
      const graph::Csr dg = graph::Csr::build(d.edges);
      const auto hash_q =
          partition::evaluate(dg, partition::HashPartitioner{}.partition(dg, 48));
      const auto ml_q =
          partition::evaluate(dg, partition::MultilevelPartitioner{}.partition(dg, 48));
      t2.add_row({d.name, Table::fmt(hash_q.replication_factor, 2),
                  Table::fmt(ml_q.replication_factor, 2)});
    }
    std::fputs(t2.render("Figure 11(2): replication factor per dataset, 48 partitions "
                         "(paper: RoadCA near 0.07 extra; web graphs 4-8)")
                   .c_str(),
               stdout);
  }

  // --- Fig 11(3): speedups under the multilevel partition. ---
  Table t3({"benchmark", "dataset", "Hama(s)", "Cyclops", "CyclopsMT",
            "paper Cy", "paper MT"});
  // §6.3/§6.6: with Metis, Cyclops reaches 5.95x-23.04x over Hama.
  const char* paper_cy[] = {"~6x", "~8x", "~12x", "~15x", "~9x", "~7x", "~6x"};
  const char* paper_mt[] = {"~9x", "~12x", "~18x", "23.04x", "~14x", "~12x", "~8x"};
  RunOptions opts;
  opts.workers = 48;
  opts.multilevel = true;
  for (std::size_t i = 0; i < datasets.size(); ++i) {
    const auto& d = datasets[i];
    const graph::Csr g = graph::Csr::build(d.edges);
    const CellResult hama = run_cell(d, g, algo::EngineKind::kHama, opts);
    const CellResult cy = run_cell(d, g, algo::EngineKind::kCyclops, opts);
    const CellResult mt = run_cell(d, g, algo::EngineKind::kCyclopsMT, opts);
    t3.add_row({algo::label(d.workload), d.name, Table::fmt(hama.total_s, 3),
                Table::fmt(cy.speedup_over(hama), 2) + "x",
                Table::fmt(mt.speedup_over(hama), 2) + "x", paper_cy[i], paper_mt[i]});
  }
  std::fputs(t3.render("Figure 11(3): speedup over Hama under multilevel (Metis-like) "
                       "partition, 48 workers")
                 .c_str(),
             stdout);
  return 0;
}
