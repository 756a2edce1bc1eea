// BENCH_scale — the GraphStore capacity/throughput benchmark. Two questions:
//
//   1. Capacity: at a fixed memory cap, how many edges can each store
//      backend hold resident? The streaming backend keeps only the O(|V|)
//      index in RAM, so it must complete graphs several times past the point
//      where the in-memory CSR no longer fits (the acceptance bar is >= 4x),
//      and this benchmark actually runs PageRank on such a graph to prove
//      "fits" means "computes", not just "constructs".
//
//   2. Throughput: edges scanned per second, per engine x store, for a
//      fixed-superstep PageRank — the price of compression (compact) and of
//      paging (stream) relative to raw in-memory adjacency.
//
// `--smoke` shrinks both sweeps for CI; `--gate <baseline.json>` compares
// per-row edges/sec against a recorded baseline and exits nonzero when any
// row drops below GATE_SLACK x baseline (generous, to absorb host noise —
// this catches order-of-magnitude regressions like accidental O(n) cursor
// re-decodes, not percent-level jitter). Results land in BENCH_scale.json
// in the working directory.

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
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

constexpr double kGateSlack = 0.15;  ///< current >= slack x baseline passes

struct CapacityRow {
  graph::StoreKind kind;
  unsigned max_scale = 0;       ///< largest rmat scale whose store fits the cap
  std::size_t max_edges = 0;    ///< |E| of that graph
  std::uint64_t resident = 0;   ///< store-resident bytes at max_scale
};

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

/// Largest rmat graph (scale sweep, 8 edges/vertex) whose store-resident
/// footprint fits under `cap_bytes`.
CapacityRow capacity_sweep(graph::StoreKind kind, std::uint64_t cap_bytes,
                           unsigned max_sweep_scale) {
  CapacityRow row{kind, 0, 0, 0};
  for (unsigned scale = 8; scale <= max_sweep_scale; ++scale) {
    const std::size_t target_edges = std::size_t{8} << scale;
    const graph::EdgeList e = graph::gen::rmat(scale, target_edges, 7);
    const auto store = graph::make_store(e, opts_for(kind, cap_bytes));
    const std::uint64_t resident = store->memory().resident_bytes;
    if (resident > cap_bytes) break;
    row.max_scale = scale;
    row.max_edges = store->num_edges();
    row.resident = resident;
  }
  return row;
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

/// Proof that "fits the cap" means "completes a run": PageRank on a stream
/// store over a graph whose in-memory CSR is far past the cap. Returns the
/// achieved scale factor |E_stream| / |E_memory-max|.
double run_oversized_stream(const CapacityRow& memory_cap, std::uint64_t cap_bytes,
                            unsigned extra_scales, std::size_t supersteps) {
  const unsigned scale = memory_cap.max_scale + extra_scales;
  const std::size_t target_edges = std::size_t{8} << scale;
  const graph::EdgeList e = graph::gen::rmat(scale, target_edges, 7);
  const auto store = graph::make_store(e, opts_for(graph::StoreKind::kStream, cap_bytes));
  if (store->memory().resident_bytes > cap_bytes) {
    std::fprintf(stderr, "stream index itself exceeds the cap at scale %u\n", scale);
    return 0;
  }
  algo::PageRankCyclops pr;
  pr.epsilon = 0;
  core::Config cfg = core::Config::cyclops(2, 2);
  cfg.max_supersteps = static_cast<Superstep>(supersteps);
  core::Engine<algo::PageRankCyclops> engine(
      *store, partition::HashPartitioner{}.partition(*store, 4), pr, cfg);
  (void)engine.run();
  return static_cast<double>(store->num_edges()) /
         static_cast<double>(memory_cap.max_edges > 0 ? memory_cap.max_edges : 1);
}

// ------------------------------------------------------------------- gate

int apply_gate(const std::string& baseline_path, const std::vector<ThroughputRow>& rows) {
  const std::optional<std::string> json = bench::read_baseline(baseline_path);
  if (!json) return 1;
  int failures = 0;
  for (const ThroughputRow& r : rows) {
    const std::string_view store = store_kind_name(r.kind);
    const double base = bench::baseline_value(
        *json, {{"engine", r.engine}, {"store", store}}, "edges_per_sec");
    if (base <= 0) {
      std::fprintf(stderr, "gate: no baseline row for %s/%s — skipping\n",
                   r.engine.c_str(), std::string(store).c_str());
      continue;
    }
    const double floor = kGateSlack * base;
    const bool ok = r.edges_per_sec() >= floor;
    std::printf("gate: %-7s %-7s  %.3g e/s vs baseline %.3g (floor %.3g) %s\n",
                r.engine.c_str(), std::string(store).c_str(), r.edges_per_sec(), base,
                floor, ok ? "ok" : "FAIL");
    if (!ok) ++failures;
  }
  return failures == 0 ? 0 : 1;
}

// ------------------------------------------------------------------- output

void emit_json(std::uint64_t cap_bytes, const std::vector<CapacityRow>& capacity,
               double stream_scale_factor, const std::vector<ThroughputRow>& rows) {
  bench::JsonWriter w("BENCH_scale.json");
  if (!w.ok()) return;
  w.str("benchmark", "scale").count("mem_cap_bytes", cap_bytes);
  w.num("gate_slack", "%.2f", kGateSlack).begin_array("capacity");
  for (const CapacityRow& c : capacity) {
    w.row().str("store", store_kind_name(c.kind)).count("max_scale", c.max_scale);
    w.count("max_edges", c.max_edges).count("resident_bytes", c.resident);
  }
  w.end_array().num("stream_scale_factor", "%.2f", stream_scale_factor);
  w.begin_array("throughput");
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

  // Capacity sweep under a deliberately small cap so the sweep stays cheap;
  // the fits-vs-streams crossover is scale-free.
  const std::uint64_t cap_bytes = smoke ? (1ull << 20) : (8ull << 20);
  const unsigned max_sweep_scale = smoke ? 14 : 18;
  std::vector<CapacityRow> capacity;
  for (const graph::StoreKind kind :
       {graph::StoreKind::kMemory, graph::StoreKind::kCompact, graph::StoreKind::kStream}) {
    capacity.push_back(capacity_sweep(kind, cap_bytes, max_sweep_scale));
  }

  Table cap_table({"store", "max scale", "max |E| under cap", "resident(MB)"});
  for (const CapacityRow& c : capacity) {
    cap_table.add_row({std::string(store_kind_name(c.kind)),
                       Table::fmt_int(static_cast<long long>(c.max_scale)),
                       Table::fmt_int(static_cast<long long>(c.max_edges)),
                       Table::fmt(static_cast<double>(c.resident) / (1 << 20), 3)});
  }
  std::printf("memory cap: %.1f MB\n", static_cast<double>(cap_bytes) / (1 << 20));
  std::fputs(cap_table.render("Capacity: largest rmat graph resident under the cap")
                 .c_str(),
             stdout);

  // Out-of-core proof run: stream a graph `extra_scales` doublings past the
  // in-memory limit (>= 4x edges) end to end.
  const double stream_scale_factor =
      run_oversized_stream(capacity[0], cap_bytes, /*extra_scales=*/2,
                           /*supersteps=*/smoke ? 2 : 3);
  std::printf("stream backend completed %.1fx the in-memory edge limit %s\n",
              stream_scale_factor, stream_scale_factor >= 4.0 ? "(>= 4x: ok)" : "(FAIL)");

  // Throughput sweep.
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

  emit_json(cap_bytes, capacity, stream_scale_factor, rows);

  int rc = stream_scale_factor >= 4.0 ? 0 : 1;
  if (!gate.empty()) rc |= apply_gate(gate, rows);
  return rc;
}
