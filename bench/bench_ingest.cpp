// BENCH_ingest — the streaming-ingestion benchmark. Three questions:
//
//   1. Publication throughput + staleness: mutations/sec through a
//      MutationIngestor into a SnapshotStore, full-copy publication vs
//      structural-sharing overlay publication, plus the mean op->published-
//      epoch staleness each achieves at a fixed batch size.
//
//   2. Memory: the o(|E|) claim — an overlay epoch's store-resident bytes
//      (patch only) vs the flat base store it shares structure with.
//
//   3. Incremental re-convergence: per published epoch, the incremental
//      engines (delta-PR on GWeb, SSSP on a road grid, CC on GWeb) vs a cold
//      from-scratch run on the same snapshot — supersteps, messages, and
//      modeled time (simulated compute phases + modeled wire/barrier cost;
//      wall-clock free, so the ratios are deterministic).
//
// `--smoke` shrinks everything for CI; `--gate <baseline.json>` compares
// against a recorded smoke baseline: wall-clock rows (mutations/sec) gate at
// GATE_SLACK x baseline to absorb host noise, deterministic rows (superstep/
// modeled-time reduction ratios) gate at 0.9x. The full-size run additionally
// enforces the acceptance bars: >= 3x modeled-time reduction for PR and SSSP,
// >= 3x superstep reduction for SSSP, and overlay epochs resident under 10%
// of the flat base. (Delta-PR's superstep reduction is contraction-depth
// limited — residuals must decay below epsilon at the same 0.85/round rate a
// cold run pays — so its wins are messages and modeled time, not rounds; the
// JSON reports its superstep ratio honestly but does not gate a 3x bar on
// it.) Results land in BENCH_ingest.json in the working directory.

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "cyclops/algorithms/datasets.hpp"
#include "cyclops/common/args.hpp"
#include "cyclops/common/table.hpp"
#include "cyclops/graph/generators.hpp"
#include "cyclops/ingest/incremental.hpp"
#include "cyclops/ingest/ingestor.hpp"
#include "cyclops/ingest/trace.hpp"
#include "cyclops/service/snapshot.hpp"
#include "json.hpp"

namespace {

using namespace cyclops;

constexpr double kWallGateSlack = 0.15;  ///< wall-clock rows: host noise
constexpr double kRatioGateSlack = 0.9;  ///< deterministic reduction ratios

struct PublicationRow {
  std::string mode;  ///< "full" | "overlay"
  std::uint64_t ops = 0;
  std::uint64_t epochs = 0;
  double mutations_per_s = 0;
  double mean_staleness_ms = 0;
  double publish_s = 0;
  std::uint64_t base_resident = 0;        ///< flat epoch-0 store bytes
  std::uint64_t mean_epoch_resident = 0;  ///< mean store bytes per mutation epoch
};

struct IncrementalRow {
  std::string algo;
  std::uint64_t epochs = 0;
  std::uint64_t inc_supersteps = 0;
  std::uint64_t cold_supersteps = 0;
  std::uint64_t inc_messages = 0;
  std::uint64_t cold_messages = 0;
  double inc_modeled_s = 0;
  double cold_modeled_s = 0;
  std::uint64_t reset_vertices = 0;
  std::uint64_t activated_vertices = 0;

  [[nodiscard]] double superstep_ratio() const {
    return inc_supersteps > 0
               ? static_cast<double>(cold_supersteps) / static_cast<double>(inc_supersteps)
               : 0.0;
  }
  [[nodiscard]] double message_ratio() const {
    return inc_messages > 0
               ? static_cast<double>(cold_messages) / static_cast<double>(inc_messages)
               : 0.0;
  }
  [[nodiscard]] double modeled_time_ratio() const {
    return inc_modeled_s > 0 ? cold_modeled_s / inc_modeled_s : 0.0;
  }
};

/// Locality-preserving mutation trace for the road grid: diagonal-shortcut
/// adds at random cells, weighted like roughly one lattice hop so each
/// improvement wavefront stays regional, plus a fraction of removals drawn
/// from earlier adds. (synth_trace's random-pair adds would create global
/// shortcuts on a grid — every one forces a diameter-length re-propagation,
/// which is a full-recompute workload, not the small-delta regime this
/// benchmark measures.)
std::vector<ingest::MutationOp> local_grid_trace(VertexId rows, VertexId cols,
                                                 std::size_t ops, std::uint64_t seed) {
  std::vector<ingest::MutationOp> trace;
  std::vector<std::pair<VertexId, VertexId>> added;
  std::uint64_t x = seed;
  const auto next = [&x]() {  // splitmix64: seeded, wall-clock free
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  };
  for (std::size_t i = 0; i < ops; ++i) {
    ingest::MutationOp op;
    op.at_s = 1e-4 * static_cast<double>(i);
    if (i % 10 == 9 && !added.empty()) {
      const auto [s, d] = added[next() % added.size()];
      op.is_add = false;
      op.src = s;
      op.dst = d;
    } else {
      const VertexId r = static_cast<VertexId>(next() % (rows - 1));
      const VertexId c = static_cast<VertexId>(next() % (cols - 1));
      op.src = r * cols + c;
      op.dst = (r + 1) * cols + (c + 1);
      // Priced near the two-hop alternative it bypasses (lattice weights are
      // lognormal with median ~1.5/hop): improvements are small, so the
      // affected cone — vertices whose shortest path adopts the shortcut —
      // stays regional instead of sweeping the whole grid.
      op.weight = 2.0 + 1e-3 * static_cast<double>(next() % 2000);
      added.emplace_back(op.src, op.dst);
    }
    trace.push_back(op);
  }
  return trace;
}

service::SnapshotConfig snapshot_config(bool overlay) {
  service::SnapshotConfig cfg;
  cfg.machines = 2;
  cfg.workers_per_machine = 2;
  cfg.overlay_publish = overlay;
  return cfg;
}

// ------------------------------------------------- publication throughput

PublicationRow publication_run(const char* mode, bool overlay, const graph::EdgeList& base,
                               const std::vector<ingest::MutationOp>& trace,
                               std::size_t batch) {
  service::SnapshotStore store(base, snapshot_config(overlay));
  PublicationRow row;
  row.mode = mode;
  row.base_resident = store.current()->store().memory().resident_bytes;

  std::uint64_t resident_sum = 0;
  std::uint64_t resident_epochs = 0;
  ingest::MutationIngestor ingestor(store, {batch, /*max_delay_s=*/1e9});
  ingestor.set_epoch_hook([&](service::Epoch, const core::TopologyDelta&) {
    resident_sum += store.current()->store().memory().resident_bytes;
    ++resident_epochs;
  });
  for (const ingest::MutationOp& op : trace) ingestor.offer(op);
  ingestor.flush();

  const ingest::IngestStats& s = ingestor.stats();
  row.ops = s.ops;
  row.epochs = s.batches;
  row.mutations_per_s = s.mutations_per_s();
  row.mean_staleness_ms = 1e3 * s.mean_staleness_s();
  row.publish_s = s.publish_s;
  row.mean_epoch_resident =
      resident_epochs > 0 ? resident_sum / resident_epochs : 0;
  return row;
}

// ------------------------------------------------ incremental vs cold

/// Replays `trace` through an ingestor; per epoch, advances the incremental
/// engine and runs a cold engine from scratch on the same snapshot.
template <typename Prog>
IncrementalRow incremental_run(const char* algo, const graph::EdgeList& base,
                               const std::vector<ingest::MutationOp>& trace,
                               std::size_t batch, Prog prog,
                               const ingest::IncrementalConfig& icfg) {
  service::SnapshotStore store(base, snapshot_config(/*overlay=*/true));
  IncrementalRow row;
  row.algo = algo;

  ingest::Incremental<Prog> inc(store.current(), prog, icfg);
  (void)inc.cold_run();  // epoch-0 convergence is common to both sides

  ingest::MutationIngestor ingestor(store, {batch, /*max_delay_s=*/1e9});
  ingestor.set_epoch_hook([&](service::Epoch, const core::TopologyDelta& delta) {
    const service::SnapshotRef snap = store.current();
    const ingest::EpochAdvance adv = inc.advance(snap, delta);
    row.inc_supersteps += adv.run.supersteps.size();
    row.inc_messages += adv.run.net_totals().total_messages();
    row.inc_modeled_s += adv.run.total_time_s();
    row.reset_vertices += adv.reset_vertices;
    row.activated_vertices += adv.activated_vertices;

    ingest::Incremental<Prog> cold(snap, prog, icfg);
    const metrics::RunStats cs = cold.cold_run();
    row.cold_supersteps += cs.supersteps.size();
    row.cold_messages += cs.net_totals().total_messages();
    row.cold_modeled_s += cs.total_time_s();
    ++row.epochs;
  });
  for (const ingest::MutationOp& op : trace) ingestor.offer(op);
  ingestor.flush();
  return row;
}

// ------------------------------------------------------------------- gate

int apply_gate(const std::string& baseline_path, const std::vector<PublicationRow>& pub,
               const std::vector<IncrementalRow>& inc) {
  const std::optional<std::string> json = bench::read_baseline(baseline_path);
  if (!json) return 1;
  int failures = 0;

  for (const PublicationRow& r : pub) {
    const double base =
        bench::baseline_value(*json, {{"mode", r.mode}}, "mutations_per_sec");
    if (base <= 0) {
      std::fprintf(stderr, "gate: no baseline row for mode %s — skipping\n",
                   r.mode.c_str());
      continue;
    }
    const double floor = kWallGateSlack * base;
    const bool ok = r.mutations_per_s >= floor;
    std::printf("gate: publish %-7s  %.3g mut/s vs baseline %.3g (floor %.3g) %s\n",
                r.mode.c_str(), r.mutations_per_s, base, floor, ok ? "ok" : "FAIL");
    if (!ok) ++failures;
  }
  for (const IncrementalRow& r : inc) {
    struct Check {
      const char* field;
      double current;
    } checks[] = {{"superstep_ratio", r.superstep_ratio()},
                  {"modeled_time_ratio", r.modeled_time_ratio()}};
    for (const Check& c : checks) {
      const double base = bench::baseline_value(*json, {{"algo", r.algo}}, c.field);
      if (base <= 0) {
        std::fprintf(stderr, "gate: no baseline %s for %s — skipping\n", c.field,
                     r.algo.c_str());
        continue;
      }
      const double floor = kRatioGateSlack * base;
      const bool ok = c.current >= floor;
      std::printf("gate: %-4s %-18s %.3g vs baseline %.3g (floor %.3g) %s\n",
                  r.algo.c_str(), c.field, c.current, base, floor, ok ? "ok" : "FAIL");
      if (!ok) ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

// ------------------------------------------------------------------- output

void emit_json(bool smoke, const std::vector<PublicationRow>& pub,
               const std::vector<IncrementalRow>& inc) {
  bench::JsonWriter w("BENCH_ingest.json");
  if (!w.ok()) return;
  w.str("benchmark", "ingest").flag("smoke", smoke);
  w.num("wall_gate_slack", "%.2f", kWallGateSlack);
  w.num("ratio_gate_slack", "%.2f", kRatioGateSlack).begin_array("publication");
  for (const PublicationRow& r : pub) {
    w.row().str("mode", r.mode).count("ops", r.ops).count("epochs", r.epochs);
    w.num("mutations_per_sec", "%.1f", r.mutations_per_s);
    w.num("mean_staleness_ms", "%.4f", r.mean_staleness_ms).num("publish_s", "%.6f", r.publish_s);
    w.count("base_resident_bytes", r.base_resident);
    w.count("mean_epoch_resident_bytes", r.mean_epoch_resident);
  }
  w.end_array().begin_array("incremental");
  for (const IncrementalRow& r : inc) {
    w.row().str("algo", r.algo).count("epochs", r.epochs);
    w.count("inc_supersteps", r.inc_supersteps).count("cold_supersteps", r.cold_supersteps);
    w.num("superstep_ratio", "%.3f", r.superstep_ratio());
    w.count("inc_messages", r.inc_messages).count("cold_messages", r.cold_messages);
    w.num("message_ratio", "%.3f", r.message_ratio());
    w.num("inc_modeled_s", "%.6f", r.inc_modeled_s).num("cold_modeled_s", "%.6f", r.cold_modeled_s);
    w.num("modeled_time_ratio", "%.3f", r.modeled_time_ratio());
    w.count("reset_vertices", r.reset_vertices).count("activated_vertices", r.activated_vertices);
  }
  w.end_array();
}

}  // namespace

int main(int argc, char** argv) {
  args::Parser p(argc, argv);
  const bool smoke = p.flag("--smoke");
  const std::string gate = p.get("--gate", std::string{});
  p.finish();

  // Base graphs. GWeb for PR/CC (the paper's web-graph workload); a road
  // grid for SSSP so the cold runs pay diameter-many supersteps, which is
  // what an incremental frontier restart saves.
  const double gweb_scale = smoke ? 0.05 : 0.4;
  graph::EdgeList gweb = std::move(algo::make_gweb({gweb_scale}).edges);
  graph::gen::RoadSpec road;
  road.rows = smoke ? 30 : 80;
  road.cols = smoke ? 30 : 80;
  road.shortcut_fraction = 0.0;
  graph::EdgeList grid = graph::gen::road_grid(road, 77);

  const std::size_t ops = smoke ? 192 : 1024;
  const std::size_t batch = 32;

  // Synthetic traces: adds between random vertices, removes drawn from the
  // trace's own earlier adds. Each 32-op batch stays well under 1% of |E|
  // in the full-size run — the "small delta" regime the acceptance bar is
  // about.
  ingest::TraceSpec gweb_spec;
  gweb_spec.ops = ops;
  gweb_spec.num_vertices = gweb.num_vertices();
  gweb_spec.seed = 7;
  const std::vector<ingest::MutationOp> gweb_trace = ingest::synth_trace(gweb_spec);

  ingest::TraceSpec cc_spec = gweb_spec;
  cc_spec.undirected = true;
  const std::vector<ingest::MutationOp> cc_trace = ingest::synth_trace(cc_spec);

  const std::vector<ingest::MutationOp> grid_trace =
      local_grid_trace(road.rows, road.cols, ops, 11);

  // 1. Publication throughput + staleness, full copy vs overlay.
  std::vector<PublicationRow> pub;
  pub.push_back(publication_run("full", false, gweb, gweb_trace, batch));
  pub.push_back(publication_run("overlay", true, gweb, gweb_trace, batch));

  Table pub_table({"mode", "ops", "epochs", "mut/s", "staleness(ms)", "publish(s)",
                   "base resident", "epoch resident"});
  for (const PublicationRow& r : pub) {
    pub_table.add_row({r.mode, Table::fmt_int(static_cast<long long>(r.ops)),
                       Table::fmt_int(static_cast<long long>(r.epochs)),
                       Table::fmt(r.mutations_per_s, 0),
                       Table::fmt(r.mean_staleness_ms, 4), Table::fmt(r.publish_s, 4),
                       Table::fmt_int(static_cast<long long>(r.base_resident)),
                       Table::fmt_int(static_cast<long long>(r.mean_epoch_resident))});
  }
  std::fputs(pub_table.render("Publication: full copy vs structural-sharing overlay")
                 .c_str(),
             stdout);

  // 2+3. Incremental vs cold per epoch.
  std::vector<IncrementalRow> inc;
  const ingest::IncrementalConfig icfg =
      ingest::make_incremental_config(snapshot_config(true), false, 4, 2, 5000);
  // Serving-grade PageRank tolerance: with epsilon above the per-delta
  // perturbation scale, the incremental residual dies in a few rounds while a
  // cold run still pays the full contraction depth. (At epsilon far below
  // the perturbation, delta-PR's round count converges to the cold one — see
  // the file header.)
  inc.push_back(incremental_run("pr", gweb, gweb_trace, batch,
                                algo::PageRankCyclops{.epsilon = 1e-6}, icfg));
  inc.push_back(incremental_run("sssp", grid, grid_trace, batch,
                                algo::SsspCyclops{.source = 0}, icfg));
  inc.push_back(incremental_run("cc", gweb, cc_trace, batch, algo::CcCyclops{}, icfg));

  Table inc_table({"algo", "epochs", "supersteps inc/cold", "ratio",
                   "messages inc/cold", "ratio", "modeled(s) inc/cold", "ratio"});
  for (const IncrementalRow& r : inc) {
    inc_table.add_row(
        {r.algo, Table::fmt_int(static_cast<long long>(r.epochs)),
         Table::fmt_int(static_cast<long long>(r.inc_supersteps)) + "/" +
             Table::fmt_int(static_cast<long long>(r.cold_supersteps)),
         Table::fmt(r.superstep_ratio(), 2),
         Table::fmt_int(static_cast<long long>(r.inc_messages)) + "/" +
             Table::fmt_int(static_cast<long long>(r.cold_messages)),
         Table::fmt(r.message_ratio(), 2),
         Table::fmt(r.inc_modeled_s, 4) + "/" + Table::fmt(r.cold_modeled_s, 4),
         Table::fmt(r.modeled_time_ratio(), 2)});
  }
  std::fputs(inc_table.render("Incremental re-convergence vs cold per-epoch runs")
                 .c_str(),
             stdout);

  emit_json(smoke, pub, inc);

  int rc = 0;
  if (!smoke) {
    // Acceptance bars (full-size run only; smoke graphs are too small for
    // the asymptotic claims to bind).
    const PublicationRow& ov = pub[1];
    const bool mem_ok = ov.mean_epoch_resident * 10 < ov.base_resident;
    std::printf("overlay epoch resident %llu vs flat base %llu %s\n",
                static_cast<unsigned long long>(ov.mean_epoch_resident),
                static_cast<unsigned long long>(ov.base_resident),
                mem_ok ? "(o(|E|): ok)" : "(FAIL: expected <10%)");
    if (!mem_ok) rc = 1;
    for (const IncrementalRow& r : inc) {
      if (r.algo == "cc") continue;
      const bool time_ok = r.modeled_time_ratio() >= 3.0;
      std::printf("%s modeled-time reduction %.2fx %s\n", r.algo.c_str(),
                  r.modeled_time_ratio(), time_ok ? "(>= 3x: ok)" : "(FAIL)");
      if (!time_ok) rc = 1;
      if (r.algo == "sssp") {
        const bool ss_ok = r.superstep_ratio() >= 3.0;
        std::printf("sssp superstep reduction %.2fx %s\n", r.superstep_ratio(),
                    ss_ok ? "(>= 3x: ok)" : "(FAIL)");
        if (!ss_ok) rc = 1;
      }
    }
  }
  if (!gate.empty()) rc |= apply_gate(gate, pub, inc);
  return rc;
}
