// The paper's evaluation, one panel per figure or table: the §2.2 motivation
// experiment (Fig. 3), §6's Figures 9-13 and Tables 2 and 4, and an ablation
// of the design choices DESIGN.md §4 calls out. Panels are keyed by
// DESIGN.md §3's experiment IDs:
//
//   bench_paper                   every panel, in DESIGN.md §3's order
//   bench_paper --figure F9.2     one panel
//   bench_paper --scale 0.125     every dataset at 1/8 of its default size
//
// Every number printed is modeled (op counts x SoftwareModel rates plus
// CostModel wire and barrier time), so the output is byte-identical from run
// to run. The one exception is F13.1, whose ingress seconds are host time.
// The figure_<ID> ctests byte-compare every other panel's stdout against
// bench/baselines/figures/<ID>.txt (EXPERIMENTS.md, "Figure gate").
//
// Table 3 is bench_table3_msg_micro: Google Benchmark, host time.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "cyclops/algorithms/pagerank.hpp"
#include "cyclops/bsp/engine.hpp"
#include "cyclops/common/args.hpp"
#include "cyclops/common/table.hpp"
#include "cyclops/common/timer.hpp"
#include "cyclops/core/engine.hpp"
#include "cyclops/core/layout.hpp"
#include "cyclops/graph/csr.hpp"
#include "cyclops/metrics/convergence.hpp"
#include "cyclops/metrics/reporter.hpp"
#include "cyclops/partition/hash.hpp"
#include "cyclops/partition/ldg.hpp"
#include "cyclops/partition/multilevel.hpp"
#include "cyclops/partition/partition.hpp"
#include "harness.hpp"

namespace {

using namespace cyclops;
using namespace cyclops::bench;
using algo::EngineKind;

// The three edge-cut engines Figs. 9 and 10 compare.
constexpr EngineKind kEdgeCutEngines[] = {EngineKind::kHama, EngineKind::kCyclops,
                                          EngineKind::kCyclopsMT};

void print(const Table& t, const std::string& title) {
  std::fputs(t.render(title).c_str(), stdout);
}

std::string count(std::uint64_t v) { return Table::fmt_int(static_cast<long long>(v)); }

// --- F3: §2.2 motivation. PageRank on GWeb under BSP: (1) vertices converged
// per superstep, (2) redundant-message ratio per superstep, (3) final
// per-vertex error by rank importance when the *global* error bound is
// reached — important vertices are still unconverged while converged ones
// keep computing. ---
void fig3(const algo::DatasetScale& scale) {
  const algo::Dataset gweb = algo::make_gweb(scale);
  const graph::Csr g = graph::Csr::build(gweb.edges);
  std::printf("Dataset: %s\n", gweb.describe().c_str());
  const auto reference = algo::pagerank_reference(g);

  algo::PageRankBsp prog;
  // The paper uses e=1e-10 on graphs whose ranks are ~1e-6; the stand-in has
  // ~40x fewer vertices, so thresholds scale accordingly (see EXPERIMENTS.md).
  prog.epsilon = 1e-8;                 // global average-error stop bound
  prog.redundancy_rel_epsilon = 1e-4;  // information-free re-sends
  bsp::Config cfg;
  cfg.topo = sim::Topology{kMachines, 8};
  cfg.max_supersteps = 35;  // the figure's horizon
  cfg.track_redundant = true;
  bsp::Engine<algo::PageRankBsp> engine(g, partition::HashPartitioner{}.partition(g, 48),
                                        prog, cfg);

  // A vertex "converged at superstep s" when |value - ref| first drops below
  // the local epsilon.
  const double local_eps = 1e-6;  // per-vertex convergence, rank-scale adjusted
  constexpr Superstep kNever = ~Superstep{0};
  std::vector<Superstep> converged_at(g.num_vertices(), kNever);
  engine.set_observer([&](const metrics::SuperstepStats& step, const auto& e) {
    const auto values = e.values();
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (converged_at[v] == kNever && std::abs(values[v] - reference[v]) <= local_eps) {
        converged_at[v] = step.superstep;
      }
    }
  });
  const auto stats = engine.run();

  Table t1({"superstep", "newly_converged", "cumulative"});
  std::vector<std::uint64_t> per_step(stats.supersteps.size() + 1, 0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (converged_at[v] != kNever) ++per_step[converged_at[v]];
  }
  std::uint64_t cumulative = 0;
  for (std::size_t s = 0; s < stats.supersteps.size(); ++s) {
    cumulative += per_step[s];
    t1.add_row({count(s), count(per_step[s]), count(cumulative)});
  }
  print(t1, "Figure 3(1): vertices converged per superstep "
            "(paper: ~20% within 2 supersteps, majority by 16)");

  Table t2({"superstep", "messages", "redundant", "ratio"});
  for (const auto& s : stats.supersteps) {
    const auto msgs = s.net.total_messages();
    t2.add_row({Table::fmt_int(s.superstep), count(msgs), count(s.redundant_messages),
                Table::fmt(msgs > 0 ? static_cast<double>(s.redundant_messages) /
                                          static_cast<double>(msgs)
                                    : 0.0,
                           3)});
  }
  print(t2, "Figure 3(2): redundant-message ratio per superstep "
            "(paper: >30% after superstep 14)");

  const auto ranked = metrics::ranked_errors(reference, engine.values());
  Table t3({"importance_decile", "max_error", "mean_error", "unconverged(>eps)"});
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
    t3.add_row({Table::fmt_int(d + 1), Table::fmt(max_err, 14),
                Table::fmt(sum / std::max<std::size_t>(1, end - begin), 14),
                count(unconverged)});
  }
  print(t3, "Figure 3(3): final error by importance decile (paper: "
            "unconverged vertices concentrate in the top deciles)");
}

// --- F9.1: speedup of Cyclops and CyclopsMT over Hama, 48 workers, hash
// partition, all seven benchmarks. Also prints the dataset list. ---
void fig9_1(const algo::DatasetScale& scale) {
  // Paper-reported speedups where §6.3 states them explicitly; "~" where the
  // figure is only graphical.
  constexpr const char* kPaper[][2] = {
      {"~2.1x", "~3x"}, {"~2.5x", "~4x"},     {"~4x", "~7x"},     {"5.03x", "8.69x"},
      {"3.48x", "5.60x"}, {"2.55x", "5.54x"}, {"1.33x", "2.06x"},
  };
  const auto datasets = algo::make_all_datasets(scale);
  std::puts("Datasets (paper-scale -> stand-in scale):");
  for (const auto& d : datasets) std::printf("  %s\n", d.describe().c_str());
  Table t({"benchmark", "dataset", "Hama(s)", "Cyclops(s)", "speedup", "CyclopsMT(s)",
           "speedup", "paper Cy", "paper MT"});
  for (std::size_t i = 0; i < datasets.size(); ++i) {
    const auto& d = datasets[i];
    const graph::Csr g = graph::Csr::build(d.edges);
    const CellResult hama = run_cell(d, g, EngineKind::kHama, {});
    const CellResult cy = run_cell(d, g, EngineKind::kCyclops, {});
    const CellResult mt = run_cell(d, g, EngineKind::kCyclopsMT, {});
    t.add_row({algo::label(d.workload), d.name, Table::fmt(hama.total_s, 3),
               Table::fmt(cy.total_s, 3), Table::fmt(cy.speedup_over(hama), 2) + "x",
               Table::fmt(mt.total_s, 3), Table::fmt(mt.speedup_over(hama), 2) + "x",
               kPaper[i][0], kPaper[i][1]});
  }
  print(t, "Figure 9(1): speedup over Hama, 48 workers, hash partition");
}

// --- F9.2: scalability with 6/12/24/48 workers, normalized to Hama with 6. ---
void fig9_2(const algo::DatasetScale& scale) {
  Table t({"benchmark", "dataset", "workers", "Hama", "Cyclops", "CyclopsMT"});
  for (const auto& d : algo::make_all_datasets(scale)) {
    const graph::Csr g = graph::Csr::build(d.edges);
    double hama_base = 0;
    for (WorkerId workers : {6u, 12u, 24u, 48u}) {
      std::vector<std::string> row = {algo::label(d.workload), d.name,
                                      Table::fmt_int(workers)};
      for (const EngineKind kind : kEdgeCutEngines) {
        const double total_s = run_cell(d, g, kind, {.workers = workers}).total_s;
        if (kind == EngineKind::kHama && workers == 6) hama_base = total_s;
        row.push_back(Table::fmt(total_s > 0 ? hama_base / total_s : 0.0, 2) + "x");
      }
      t.add_row(std::move(row));
    }
  }
  print(t, "Figure 9(2): scalability, speedup normalized to Hama with 6 workers");
}

// --- F10.1: execution-time breakdown (SYN/PRS/CMP/SND), 48 workers. ---
void fig10_1(const algo::DatasetScale& scale) {
  std::puts("Figure 10(1): execution-time breakdown, 48 workers");
  std::puts("(paper: Hama dominated by SND+PRS; Cyclops/CyclopsMT by CMP)");
  for (const auto& d : algo::make_all_datasets(scale)) {
    const graph::Csr g = graph::Csr::build(d.edges);
    for (const EngineKind kind : kEdgeCutEngines) {
      const CellResult r = run_cell(d, g, kind, {});
      const std::string label = d.name + "/" + algo::label(kind);
      std::printf("%s\n", metrics::phase_breakdown_row(label, r.stats, true).c_str());
    }
  }
}

// --- F10.2 (with F10.3): active vertices and messages per superstep,
// PageRank on GWeb, Hama vs Cyclops. ---
void fig10_2(const algo::DatasetScale& scale) {
  const algo::Dataset gweb = algo::make_gweb(scale);
  const graph::Csr g = graph::Csr::build(gweb.edges);
  const CellResult hama = run_cell(gweb, g, EngineKind::kHama, {});
  const CellResult cy = run_cell(gweb, g, EngineKind::kCyclops, {});

  Table t({"superstep", "Hama active", "Cyclops active", "Hama msgs", "Cyclops msgs"});
  const std::size_t steps =
      std::max(hama.stats.supersteps.size(), cy.stats.supersteps.size());
  for (std::size_t s = 0; s < steps; ++s) {
    auto cell = [&](const CellResult& r, bool active) -> std::string {
      if (s >= r.stats.supersteps.size()) return "-";
      const auto& step = r.stats.supersteps[s];
      return count(active ? step.active_vertices : step.net.total_messages());
    };
    t.add_row({count(s), cell(hama, true), cell(cy, true), cell(hama, false),
               cell(cy, false)});
  }
  print(t, "Figure 10(2)/(3): active vertices and messages per superstep, "
           "PageRank on GWeb (paper: Cyclops decays, Hama stays flat)");
}

// --- F11.1: replication factor vs #partitions on Wiki, hash vs multilevel. ---
void fig11_1(const algo::DatasetScale& scale) {
  const graph::Csr g = graph::Csr::build(algo::make_wiki(scale).edges);
  Table t({"partitions", "hash", "multilevel(metis)"});
  for (WorkerId parts : {6u, 12u, 24u, 48u}) {
    const auto hash_q = partition::evaluate(g, partition::HashPartitioner{}.partition(g, parts));
    const auto ml_q =
        partition::evaluate(g, partition::MultilevelPartitioner{}.partition(g, parts));
    t.add_row({Table::fmt_int(parts), Table::fmt(hash_q.replication_factor, 2),
               Table::fmt(ml_q.replication_factor, 2)});
  }
  print(t, "Figure 11(1): replication factor vs partitions, Wiki "
           "(paper: hash approaches avg degree; Metis much lower)");
}

// --- F11.2: replication factor per dataset at 48 partitions. ---
void fig11_2(const algo::DatasetScale& scale) {
  Table t({"dataset", "hash", "multilevel(metis)"});
  for (const auto& d : algo::make_all_datasets(scale)) {
    const graph::Csr g = graph::Csr::build(d.edges);
    const auto hash_q = partition::evaluate(g, partition::HashPartitioner{}.partition(g, 48));
    const auto ml_q =
        partition::evaluate(g, partition::MultilevelPartitioner{}.partition(g, 48));
    t.add_row({d.name, Table::fmt(hash_q.replication_factor, 2),
               Table::fmt(ml_q.replication_factor, 2)});
  }
  print(t, "Figure 11(2): replication factor per dataset, 48 partitions "
           "(paper: RoadCA near 0.07 extra; web graphs 4-8)");
}

// --- F11.3: speedups under the multilevel partition, normalized to Hama
// under the same partition. ---
void fig11_3(const algo::DatasetScale& scale) {
  // §6.3/§6.6: with Metis, Cyclops reaches 5.95x-23.04x over Hama.
  constexpr const char* kPaper[][2] = {
      {"~6x", "~9x"},  {"~8x", "~12x"}, {"~12x", "~18x"}, {"~15x", "23.04x"},
      {"~9x", "~14x"}, {"~7x", "~12x"}, {"~6x", "~8x"},
  };
  const auto datasets = algo::make_all_datasets(scale);
  Table t({"benchmark", "dataset", "Hama(s)", "Cyclops", "CyclopsMT", "paper Cy",
           "paper MT"});
  const RunOptions opts{.multilevel = true};
  for (std::size_t i = 0; i < datasets.size(); ++i) {
    const auto& d = datasets[i];
    const graph::Csr g = graph::Csr::build(d.edges);
    const CellResult hama = run_cell(d, g, EngineKind::kHama, opts);
    const CellResult cy = run_cell(d, g, EngineKind::kCyclops, opts);
    const CellResult mt = run_cell(d, g, EngineKind::kCyclopsMT, opts);
    t.add_row({algo::label(d.workload), d.name, Table::fmt(hama.total_s, 3),
               Table::fmt(cy.speedup_over(hama), 2) + "x",
               Table::fmt(mt.speedup_over(hama), 2) + "x", kPaper[i][0], kPaper[i][1]});
  }
  print(t, "Figure 11(3): speedup over Hama under multilevel (Metis-like) "
           "partition, 48 workers");
}

// --- F12: CyclopsMT configuration sweep M x W x T / R (machines x workers
// per machine x threads / receivers), PageRank on GWeb. Sets the thread
// decomposition the catalog does not carry, so it builds engines itself. ---
void fig12(const algo::DatasetScale& scale) {
  struct Shape {
    WorkerId workers_per_machine;
    unsigned threads, receivers;
  };
  constexpr Shape kShapes[] = {
      // Plain Cyclops with more single-threaded workers per machine.
      {1, 1, 1}, {2, 1, 1}, {4, 1, 1}, {8, 1, 1},
      // CyclopsMT with more compute threads.
      {1, 1, 1}, {1, 2, 1}, {1, 4, 1}, {1, 8, 1},
      // 8 compute threads, more receivers.
      {1, 8, 1}, {1, 8, 2}, {1, 8, 4}, {1, 8, 8},
  };
  const algo::Dataset gweb = algo::make_gweb(scale);
  const graph::Csr g = graph::Csr::build(gweb.edges);
  std::printf("Dataset: %s\n", gweb.describe().c_str());

  Table t({"config MxWxT/R", "SYN(s)", "CMP(s)", "SND(s)", "total(s)", "replicas",
           "messages"});
  for (const Shape& s : kShapes) {
    core::Config cfg;
    cfg.topo = sim::Topology{kMachines, s.workers_per_machine};
    cfg.compute_threads = s.threads;
    cfg.receiver_threads = s.receivers;
    cfg.hierarchical_barrier = s.threads > 1;
    cfg.max_supersteps = kMaxSupersteps;
    core::Engine<algo::PageRankCyclops> engine(
        g, partition::HashPartitioner{}.partition(g, cfg.topo.total_workers()),
        algo::PageRankCyclops{.epsilon = kEpsilon}, cfg);
    const auto stats = engine.run();
    const auto phases = stats.phase_totals();
    char label[48];
    std::snprintf(label, sizeof(label), "%ux%ux%u/%u", kMachines, s.workers_per_machine,
                  s.threads, s.receivers);
    t.add_row({label, Table::fmt(stats.modeled_barrier_s(), 3), Table::fmt(phases.cmp_s, 3),
               Table::fmt(phases.snd_s + stats.modeled_wire_s(), 3),
               Table::fmt(stats.total_time_s(), 3), count(engine.layout().total_replicas),
               count(stats.net_totals().total_messages())});
  }
  print(t, "Figure 12: CyclopsMT configuration sweep, PageRank on GWeb "
           "(paper: more workers inflate replicas/messages; threads cut CMP "
           "with stable SND; best config 6x1x8/2)");
}

// --- F13.1: ingress time breakdown (load / replicate / init), Hama vs
// Cyclops. Host time, not modeled: the one panel the figure gate skips. ---
void fig13_1(const algo::DatasetScale& scale) {
  Table t({"dataset", "LD(s)", "REP(s)", "INIT(s)", "TOT Hama(s)", "TOT Cyclops(s)"});
  for (const auto& d : algo::make_all_datasets(scale)) {
    // LD: text-free in-memory build (CSR construction stands in for the HDFS
    // load + vertex distribution both systems share).
    Timer ld;
    const graph::Csr g = graph::Csr::build(d.edges);
    const double ld_s = ld.elapsed_s();
    // Hama ingress = LD only (no replicas); Cyclops adds REP + INIT.
    const core::Layout layout =
        core::build_layout(g, partition::HashPartitioner{}.partition(g, 48));
    t.add_row({d.name, Table::fmt(ld_s, 3), Table::fmt(layout.replicate_s, 3),
               Table::fmt(layout.init_s, 3), Table::fmt(ld_s, 3),
               Table::fmt(ld_s + layout.replicate_s + layout.init_s, 3)});
  }
  print(t, "Figure 13(1): ingress time breakdown, host seconds, varies run to run "
           "(paper: Cyclops pays a modest one-time replication cost over Hama)");
}

// --- F13.2: ALS execution time as the input grows. The paper sweeps 0.34M
// to 20.2M edges; here SYN-GL grows from 1/8 to 2x its stand-in size. ---
void fig13_2(const algo::DatasetScale& scale) {
  Table t({"edges", "CyclopsMT time(s)", "Hama time(s)"});
  for (double factor : {0.125, 0.25, 0.5, 1.0, 2.0}) {
    const algo::Dataset d =
        algo::make_syn_gl({.factor = scale.factor * factor, .seed = scale.seed});
    const graph::Csr g = graph::Csr::build(d.edges);
    const CellResult mt = run_cell(d, g, EngineKind::kCyclopsMT, {});
    const CellResult hama = run_cell(d, g, EngineKind::kHama, {});
    t.add_row({count(d.edges.num_edges()), Table::fmt(mt.total_s, 3),
               Table::fmt(hama.total_s, 3)});
  }
  print(t, "Figure 13(2): ALS execution time vs graph size "
           "(paper: near-linear growth, 9.6s@0.34M -> 207.7s@20.2M)");
}

// --- F13.3: L1-norm distance to the final PageRank over modeled time, on
// GWeb, for Hama, Cyclops and CyclopsMT. The observer is not a Config field,
// so the panel builds the engines itself. ---
void fig13_3(const algo::DatasetScale& scale) {
  const algo::Dataset gweb = algo::make_gweb(scale);
  const graph::Csr g = graph::Csr::build(gweb.edges);
  const auto reference = algo::pagerank_reference(g);

  Table t({"series", "superstep", "elapsed(s)", "L1-norm distance"});
  // One sampling lambda for every engine: after each superstep it advances
  // the modeled clock and samples the L1 distance of the engine's values.
  auto track = [&](const char* series, auto& engine) {
    metrics::ConvergenceTracker tracker(reference);
    double clock = 0;
    engine.set_observer([&](const metrics::SuperstepStats& s, const auto& e) {
      clock += s.total_time_s();
      tracker.sample(clock, e.values());
    });
    (void)engine.run();
    const auto& points = tracker.points();
    for (std::size_t i = 0; i < points.size(); ++i) {
      t.add_row({series, count(i), Table::fmt(points[i].elapsed_s, 4),
                 Table::fmt(points[i].l1, 9)});
    }
  };
  {
    bsp::Config cfg;
    cfg.topo = sim::Topology{kMachines, 8};
    cfg.max_supersteps = kMaxSupersteps;
    bsp::Engine<algo::PageRankBsp> hama(g, partition::HashPartitioner{}.partition(g, 48),
                                        {.epsilon = 1e-10}, cfg);
    track("Hama", hama);
  }
  for (const bool mt : {false, true}) {
    core::Config cfg = mt ? core::Config::cyclops_mt(kMachines, 8, kMtReceivers)
                          : core::Config::cyclops(kMachines, 8);
    cfg.max_supersteps = kMaxSupersteps;
    core::Engine<algo::PageRankCyclops> engine(
        g, partition::HashPartitioner{}.partition(g, cfg.topo.total_workers()),
        {.epsilon = 1e-10}, cfg);
    track(mt ? "CyclopsMT" : "Cyclops", engine);
  }
  print(t, "Figure 13(3): L1-norm distance to final PageRank over time "
           "(paper: Cyclops/CyclopsMT converge markedly faster than Hama)");
}

// --- T2: memory behaviour of Hama/48, Cyclops/48 and CyclopsMT/6x8 for
// PageRank on Wiki (hash partition, Cyclops' worst case for replicas). The
// paper reports JVM heap and jStat GC counts; with no JVM, the table reports
// the byte footprints that drove them: resident state (heap usage analog),
// peak with in-flight messages (max capacity analog), and message churn
// divided by a 64 MB nursery (young-GC-count analog). ---
void table2(const algo::DatasetScale& scale) {
  constexpr std::uint64_t kNursery = 64ull << 20;
  const algo::Dataset wiki = algo::make_wiki(scale);
  const graph::Csr g = graph::Csr::build(wiki.edges);
  std::printf("Dataset: %s\n", wiki.describe().c_str());

  auto mb = [](std::uint64_t b) { return Table::fmt(static_cast<double>(b) / (1 << 20), 3); };
  Table t({"configuration", "resident(MB)", "peak(MB)", "replicas(MB)", "msg churn(MB)",
           "youngGC-equiv"});
  for (const auto& [label, kind] : {std::pair{"Hama/48", EngineKind::kHama},
                                    std::pair{"Cyclops/48", EngineKind::kCyclops},
                                    std::pair{"CyclopsMT/6x8", EngineKind::kCyclopsMT}}) {
    const metrics::MemoryReport r = run_cell(wiki, g, kind, {}).memory;
    t.add_row({label, mb(r.resident_bytes()), mb(r.peak_bytes()), mb(r.replica_bytes),
               mb(r.message_churn_bytes), Table::fmt(r.young_gc_equivalent(kNursery), 2)});
  }
  print(t, "Table 2: memory behaviour, PageRank on Wiki "
           "(paper: Cyclops allocates more resident space for replicas but "
           "far less churn -> fewer GCs; CyclopsMT least per worker)");

  // Beyond the paper: Cyclops/48 with the graph behind each GraphStore
  // backend. Resident vs on-disk shows what compression and streaming buy;
  // spill is message buffering charged above the stream store's budget.
  Table st({"store", "graph resident(MB)", "graph on-disk(MB)", "msg spill(MB)",
            "peak(MB)"});
  for (const graph::StoreKind kind :
       {graph::StoreKind::kMemory, graph::StoreKind::kCompact, graph::StoreKind::kStream}) {
    graph::StoreOptions opts;
    opts.kind = kind;
    opts.mem_cap_bytes = 8ull << 20;
    const auto store = graph::make_store(wiki.edges, opts);
    const metrics::MemoryReport r = run_cell(wiki, *store, EngineKind::kCyclops, {}).memory;
    st.add_row({std::string(graph::store_kind_name(kind)), mb(r.store_resident_bytes),
                mb(r.store_on_disk_bytes), mb(r.message_spill_bytes), mb(r.peak_bytes())});
  }
  print(st, "Table 2b: Cyclops/48 graph bytes by store backend "
            "(stream: O(|V|) index resident, adjacency + message spill "
            "charged to disk under the 8 MB cap)");
}

// --- T4: CyclopsMT vs PowerGraph for PageRank on the four web/social graphs
// under (a) hash partitioning (hash edge-cut vs random vertex-cut) and (b)
// heuristic partitioning (multilevel vs coordinated-greedy). The msg/rep
// column is the mechanism of the whole comparison (Cyclops <= 1, PG ~5). ---
void table4(const algo::DatasetScale& scale) {
  const std::vector<algo::Dataset> web = {algo::make_amazon(scale), algo::make_gweb(scale),
                                          algo::make_ljournal(scale), algo::make_wiki(scale)};
  // Paper Table 4, hash partition: exec time Cyclops : PG, avg replicas,
  // #messages (M), msg/rep.
  constexpr const char* kPaperHash[] = {
      "10.5 : 14.8 | 3.86 : 3.77 | 38 : 192 | 1.0 : 5.2",
      "11.4 : 15.2 | 2.44 : 2.57 | 38 : 212 | 1.0 : 5.3",
      "97.1 : 72.9 | 2.69 : 2.62 | 353 : 1873 | 1.0 : 5.4",
      "75.6 : 61.9 | 2.51 : 2.60 | 218 : 1366 | 1.0 : 6.2",
  };
  for (const bool heuristic : {false, true}) {
    Table t({"dataset", "Cyclops(s)", "PG(s)", "reps Cy", "reps PG", "msgs Cy", "msgs PG",
             "msg/rep Cy", "msg/rep PG"});
    for (const auto& d : web) {
      const graph::Csr g = graph::Csr::build(d.edges);
      const RunOptions opts{.multilevel = heuristic};
      const CellResult cy = run_cell(d, g, EngineKind::kCyclopsMT, opts);
      const CellResult pg = run_cell(d, g, EngineKind::kGas, opts);
      // Messages per *mirror* per iteration: masters never receive sync
      // traffic, so the denominator excludes the master copy.
      auto msg_per_rep = [&](const CellResult& r) {
        const double mirrors = (r.replication_factor - 1.0) * g.num_vertices();
        const double steps = static_cast<double>(r.stats.supersteps.size());
        return mirrors > 0 && steps > 0 ? static_cast<double>(r.messages) / mirrors / steps
                                        : 0.0;
      };
      t.add_row({d.name, Table::fmt(cy.total_s, 3), Table::fmt(pg.total_s, 3),
                 Table::fmt(cy.replication_factor, 2), Table::fmt(pg.replication_factor, 2),
                 count(cy.messages), count(pg.messages), Table::fmt(msg_per_rep(cy), 2),
                 Table::fmt(msg_per_rep(pg), 2)});
    }
    print(t, heuristic ? "Table 4 (heuristic partition): CyclopsMT multilevel vs "
                         "PowerGraph coordinated-greedy"
                       : "Table 4 (hash partition): CyclopsMT vs PowerGraph");
    if (!heuristic) {
      std::puts("Paper reference (hash): time Cy:PG | avg reps | msgs(M) | msg/rep");
      for (std::size_t i = 0; i < web.size(); ++i) {
        std::printf("  %-9s %s\n", web[i].name.c_str(), kPaperHash[i]);
      }
    }
  }
}

// --- ABL: each section toggles exactly one mechanism (a Config field the
// catalog does not carry) and reports messages + execution time:
//   A  dynamic computation (skip converged vertices) on/off
//   B  hierarchical barrier (CyclopsMT) vs flat barrier
//   C  Hama's combiner on/off (how far the *baseline* can be helped)
//   D  partitioner ladder: hash -> streaming LDG -> multilevel
//      (replication factor drives messages drives time) ---
constexpr Superstep kAblationSupersteps = 40;

metrics::RunStats run_cyclops(const graph::Csr& g, const partition::EdgeCutPartition& part,
                              core::Config cfg) {
  cfg.max_supersteps = kAblationSupersteps;
  return core::Engine<algo::PageRankCyclops>(g, part, {.epsilon = kEpsilon}, cfg).run();
}

std::uint64_t computed_vertices(const metrics::RunStats& stats) {
  std::uint64_t n = 0;
  for (const auto& s : stats.supersteps) n += s.computed_vertices;
  return n;
}

void ablation(const algo::DatasetScale& scale) {
  const algo::Dataset gweb = algo::make_gweb(scale);
  const graph::Csr g = graph::Csr::build(gweb.edges);
  std::printf("Dataset: %s\n\n", gweb.describe().c_str());
  const auto hash48 = partition::HashPartitioner{}.partition(g, 48);

  Table a({"dynamic computation", "computed vertices", "messages", "time(s)"});
  for (const bool forced : {false, true}) {
    core::Config cfg = core::Config::cyclops(kMachines, 8);
    cfg.force_all_active = forced;
    const auto stats = run_cyclops(g, hash48, cfg);
    a.add_row({forced ? "off (all vertices every superstep)" : "on (Cyclops default)",
               count(computed_vertices(stats)), count(stats.net_totals().total_messages()),
               Table::fmt(stats.total_time_s(), 3)});
  }
  print(a, "Ablation A: dynamic computation via distributed activation");

  Table b({"barrier", "modeled barrier time(s)", "total(s)"});
  const auto hash6 = partition::HashPartitioner{}.partition(g, kMachines);
  for (const bool hierarchical : {false, true}) {
    core::Config cfg = core::Config::cyclops_mt(kMachines, 8, kMtReceivers);
    cfg.hierarchical_barrier = hierarchical;
    const auto stats = run_cyclops(g, hash6, cfg);
    b.add_row({hierarchical ? "hierarchical (machines only)" : "flat (all participants)",
               Table::fmt(stats.modeled_barrier_s(), 4), Table::fmt(stats.total_time_s(), 3)});
  }
  print(b, "Ablation B: hierarchical barrier (CyclopsMT, 6x1x8/2)");

  Table c({"Hama combiner", "messages", "time(s)"});
  for (const bool combine : {false, true}) {
    bsp::Config cfg;
    cfg.topo = sim::Topology{kMachines, 8};
    cfg.use_combiner = combine;
    cfg.max_supersteps = kAblationSupersteps;
    const auto stats =
        bsp::Engine<algo::PageRankBsp>(g, hash48, {.epsilon = kEpsilon}, cfg).run();
    c.add_row({combine ? "on" : "off", count(stats.net_totals().total_messages()),
               Table::fmt(stats.total_time_s(), 3)});
  }
  print(c, "Ablation C: Hama sender-side combiner (best-case baseline)");

  Table d({"partitioner", "replication factor", "messages", "Cyclops time(s)"});
  const std::pair<const char*, partition::EdgeCutPartition> ladder[] = {
      {"hash", hash48},
      {"ldg (streaming)", partition::LdgPartitioner{}.partition(g, 48)},
      {"multilevel", partition::MultilevelPartitioner{}.partition(g, 48)},
  };
  for (const auto& [name, part] : ladder) {
    const auto stats = run_cyclops(g, part, core::Config::cyclops(kMachines, 8));
    d.add_row({name, Table::fmt(partition::evaluate(g, part).replication_factor, 2),
               count(stats.net_totals().total_messages()), Table::fmt(stats.total_time_s(), 3)});
  }
  print(d, "Ablation D: partition quality -> replicas -> messages -> time");
}

struct Panel {
  const char* id;  ///< DESIGN.md §3 experiment ID
  void (*run)(const algo::DatasetScale&);
};

// In DESIGN.md §3's order; running them all prints every figure and table.
constexpr Panel kPanels[] = {
    {"F3", fig3},         {"F9.1", fig9_1},   {"F9.2", fig9_2},   {"F10.1", fig10_1},
    {"F10.2", fig10_2},   {"F11.1", fig11_1}, {"F11.2", fig11_2}, {"F11.3", fig11_3},
    {"F12", fig12},       {"F13.1", fig13_1}, {"F13.2", fig13_2}, {"F13.3", fig13_3},
    {"T2", table2},       {"T4", table4},     {"ABL", ablation},
};

}  // namespace

int main(int argc, char** argv) {
  args::Parser p(argc, argv);
  const std::string figure = p.get("--figure", "");
  const algo::DatasetScale scale{.factor = p.get("--scale", 1.0)};
  p.finish();
  if (scale.factor <= 0) args::Parser::fail("--scale must be positive");

  if (figure.empty()) {
    for (const Panel& panel : kPanels) panel.run(scale);
    return 0;
  }
  std::string ids;
  for (const Panel& panel : kPanels) {
    if (figure == panel.id) {
      panel.run(scale);
      return 0;
    }
    ids += std::string(" ") + panel.id;
  }
  args::Parser::fail("unknown --figure '" + figure + "'; choose from" + ids);
}
