// BENCH_scale — GraphStore throughput on the host clock: edges scanned per
// second, per engine x store, for a fixed-superstep PageRank — the price of
// compression (compact) and of paging (stream) relative to raw in-memory
// adjacency. (The stores' capacity under a memory cap is modeled, and is
// bench_paper's CAP panel.)
//
// `--smoke` shrinks the sweep for CI; `--gate <baseline.json>` compares each
// row's edges/sec against a recorded baseline through bench::host_gate and
// exits nonzero when a row drops below kHostGateSlack x baseline or has no
// baseline row. Results land in BENCH_scale.json in the working directory.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "cyclops/algorithms/pagerank.hpp"
#include "cyclops/bsp/engine.hpp"
#include "cyclops/common/args.hpp"
#include "cyclops/common/table.hpp"
#include "cyclops/common/timer.hpp"
#include "cyclops/core/engine.hpp"
#include "cyclops/gas/engine.hpp"
#include "cyclops/graph/generators.hpp"
#include "cyclops/graph/store.hpp"
#include "cyclops/partition/hash.hpp"
#include "cyclops/partition/vertex_cut.hpp"
#include "json.hpp"

namespace {

using namespace cyclops;

struct ThroughputRow {
  std::string engine;
  graph::StoreKind kind;
  std::size_t edges = 0;
  std::size_t supersteps = 0;
  double elapsed_s = 0;
  [[nodiscard]] double edges_per_sec() const {
    return static_cast<double>(edges) * static_cast<double>(supersteps) /
           (elapsed_s > 0 ? elapsed_s : 1e-9);
  }
  [[nodiscard]] double superstep_ms() const {
    return 1e3 * elapsed_s / static_cast<double>(supersteps > 0 ? supersteps : 1);
  }
};

graph::StoreOptions opts_for(graph::StoreKind kind, std::uint64_t cap_bytes) {
  graph::StoreOptions o;
  o.kind = kind;
  o.mem_cap_bytes = cap_bytes;
  return o;
}

/// PageRank to a fixed superstep count on a prebuilt store; returns host
/// seconds for the run() call only (graph build and partitioning excluded).
template <typename RunFn>
ThroughputRow time_run(const char* engine, graph::StoreKind kind,
                       const graph::GraphStore& g, std::size_t supersteps, RunFn run) {
  Timer t;
  run();
  return ThroughputRow{engine, kind, g.num_edges(), supersteps, t.elapsed_s()};
}

std::vector<ThroughputRow> throughput_sweep(const graph::EdgeList& e,
                                            std::uint64_t cap_bytes,
                                            std::size_t supersteps) {
  std::vector<ThroughputRow> rows;
  for (const graph::StoreKind kind :
       {graph::StoreKind::kMemory, graph::StoreKind::kCompact, graph::StoreKind::kStream}) {
    const auto store = graph::make_store(e, opts_for(kind, cap_bytes));
    const graph::GraphStore& g = *store;
    {
      algo::PageRankBsp pr;
      pr.epsilon = 0;  // never converges: exactly `supersteps` rounds
      bsp::Config cfg = bsp::Config::workers(4);
      cfg.max_supersteps = static_cast<Superstep>(supersteps);
      rows.push_back(time_run("hama", kind, g, supersteps, [&] {
        bsp::Engine<algo::PageRankBsp> engine(
            g, partition::HashPartitioner{}.partition(g, 4), pr, cfg);
        (void)engine.run();
      }));
    }
    {
      algo::PageRankCyclops pr;
      pr.epsilon = 0;
      core::Config cfg = core::Config::cyclops(2, 2);
      cfg.max_supersteps = static_cast<Superstep>(supersteps);
      cfg.force_all_active = true;
      rows.push_back(time_run("cyclops", kind, g, supersteps, [&] {
        core::Engine<algo::PageRankCyclops> engine(
            g, partition::HashPartitioner{}.partition(g, 4), pr, cfg);
        (void)engine.run();
      }));
    }
    {
      algo::PageRankGas pr;
      pr.num_vertices = g.num_vertices();
      pr.epsilon = 0;
      gas::Config cfg = gas::Config::workers(4);
      cfg.max_iterations = static_cast<Superstep>(supersteps);
      rows.push_back(time_run("gas", kind, g, supersteps, [&] {
        gas::Engine<algo::PageRankGas> engine(
            g, partition::RandomVertexCut{}.partition(g, 4), pr, cfg);
        (void)engine.run();
      }));
    }
  }
  return rows;
}

// ------------------------------------------------------------------- output

void emit_json(std::uint64_t cap_bytes, const std::vector<ThroughputRow>& rows) {
  bench::JsonWriter w("BENCH_scale.json");
  if (!w.ok()) return;
  w.str("benchmark", "scale").count("mem_cap_bytes", cap_bytes);
  w.num("gate_slack", "%.2f", bench::kHostGateSlack).begin_array("throughput");
  for (const ThroughputRow& r : rows) {
    w.row().str("engine", r.engine).str("store", store_kind_name(r.kind));
    w.count("edges", r.edges).count("supersteps", r.supersteps);
    w.num("elapsed_s", "%.6f", r.elapsed_s).num("edges_per_sec", "%.1f", r.edges_per_sec());
    w.num("superstep_ms", "%.3f", r.superstep_ms());
  }
  w.end_array();
}

}  // namespace

int main(int argc, char** argv) {
  args::Parser p(argc, argv);
  const bool smoke = p.flag("--smoke");
  const std::string gate = p.get("--gate", std::string{});
  p.finish();

  // The stream store pages its adjacency under this cap.
  const std::uint64_t cap_bytes = smoke ? (1ull << 20) : (8ull << 20);
  const unsigned tp_scale = smoke ? 10 : 12;
  const std::size_t supersteps = smoke ? 5 : 10;
  const graph::EdgeList e =
      graph::gen::rmat(tp_scale, std::size_t{8} << tp_scale, 2014);
  const std::vector<ThroughputRow> rows = throughput_sweep(e, cap_bytes, supersteps);

  Table tp_table({"engine", "store", "|E|", "supersteps", "time(s)", "edges/s",
                  "ms/superstep"});
  for (const ThroughputRow& r : rows) {
    tp_table.add_row({r.engine, std::string(store_kind_name(r.kind)),
                      Table::fmt_int(static_cast<long long>(r.edges)),
                      Table::fmt_int(static_cast<long long>(r.supersteps)),
                      Table::fmt(r.elapsed_s, 3), Table::fmt(r.edges_per_sec(), 0),
                      Table::fmt(r.superstep_ms(), 3)});
  }
  std::fputs(tp_table.render("Throughput: fixed-superstep PageRank, engine x store")
                 .c_str(),
             stdout);

  emit_json(cap_bytes, rows);
  if (gate.empty()) return 0;
  std::vector<bench::GateRow> gated;
  for (const ThroughputRow& r : rows) {
    gated.push_back({{{"engine", r.engine}, {"store", std::string(store_kind_name(r.kind))}},
                     r.edges_per_sec()});
  }
  return bench::host_gate(gate, "edges_per_sec", gated);
}
