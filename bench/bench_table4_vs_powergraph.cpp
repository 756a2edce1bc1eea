// Table 4 — CyclopsMT vs PowerGraph for PageRank on the four web/social
// graphs, under (a) hash-based partitioning (hash edge-cut for Cyclops,
// random vertex-cut for PowerGraph) and (b) heuristic partitioning
// (multilevel/Metis-like for Cyclops, coordinated-greedy for PowerGraph).
// Reports execution time, average replicas per vertex, total messages, and
// messages per replica per iteration — the paper's msg/rep column is the
// mechanism of the whole comparison (Cyclops <=1, PowerGraph ~5).

#include <cstdio>

#include "cyclops/graph/csr.hpp"
#include "cyclops/common/table.hpp"
#include "harness.hpp"

int main() {
  using namespace cyclops;
  using namespace cyclops::bench;

  const std::vector<algo::Dataset> web = {algo::make_amazon(), algo::make_gweb(),
                                          algo::make_ljournal(), algo::make_wiki()};

  // Paper Table 4 reference rows (hash partition): exec time Cyclops : PG,
  // avg replicas, #messages (M), msg/rep.
  const char* paper_hash[] = {
      "10.5 : 14.8 | 3.86 : 3.77 | 38 : 192 | 1.0 : 5.2",
      "11.4 : 15.2 | 2.44 : 2.57 | 38 : 212 | 1.0 : 5.3",
      "97.1 : 72.9 | 2.69 : 2.62 | 353 : 1873 | 1.0 : 5.4",
      "75.6 : 61.9 | 2.51 : 2.60 | 218 : 1366 | 1.0 : 6.2",
  };

  for (const bool heuristic : {false, true}) {
    Table t({"dataset", "Cyclops(s)", "PG(s)", "reps Cy", "reps PG", "msgs Cy",
             "msgs PG", "msg/rep Cy", "msg/rep PG"});
    for (std::size_t i = 0; i < web.size(); ++i) {
      const auto& d = web[i];
      const graph::Csr g = graph::Csr::build(d.edges);
      RunOptions opts;
      opts.workers = 48;
      opts.multilevel = heuristic;
      const CellResult cy = run_cell(d, g, algo::EngineKind::kCyclopsMT, opts);
      const CellResult pg = run_cell(d, g, algo::EngineKind::kGas, opts);

      // Messages per *mirror* per iteration — masters never receive sync
      // traffic, so the denominator excludes the master copy, matching the
      // paper's "Msg/Rep" column (Cyclops <= 1, PowerGraph ~5).
      auto msg_per_rep = [&](const CellResult& r) {
        const double mirrors = (r.replication_factor - 1.0) * g.num_vertices();
        const double steps = static_cast<double>(r.stats.supersteps.size());
        return mirrors > 0 && steps > 0
                   ? static_cast<double>(r.messages) / mirrors / steps
                   : 0.0;
      };
      t.add_row({d.name, Table::fmt(cy.total_s, 3), Table::fmt(pg.total_s, 3),
                 Table::fmt(cy.replication_factor, 2),
                 Table::fmt(pg.replication_factor, 2),
                 Table::fmt_int(static_cast<long long>(cy.messages)),
                 Table::fmt_int(static_cast<long long>(pg.messages)),
                 Table::fmt(msg_per_rep(cy), 2), Table::fmt(msg_per_rep(pg), 2)});
    }
    std::fputs(t.render(heuristic
                            ? "Table 4 (heuristic partition): CyclopsMT multilevel vs "
                              "PowerGraph coordinated-greedy"
                            : "Table 4 (hash partition): CyclopsMT vs PowerGraph")
                   .c_str(),
               stdout);
    if (!heuristic) {
      std::puts("Paper reference (hash): time Cy:PG | avg reps | msgs(M) | msg/rep");
      for (std::size_t i = 0; i < web.size(); ++i) {
        std::printf("  %-9s %s\n", web[i].name.c_str(), paper_hash[i]);
      }
    }
  }
  return 0;
}
