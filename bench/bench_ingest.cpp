// BENCH_ingest — streaming-ingestion publication on the host clock:
// mutations/sec through a MutationIngestor into a SnapshotStore, full-copy
// publication vs structural-sharing overlay publication, plus the mean
// op->published-epoch staleness each achieves at a fixed batch size. (The
// modeled side of ingestion, incremental re-convergence vs cold runs and the
// overlay's resident bytes, is bench_paper's ING panel.)
//
// `--smoke` shrinks the run for CI; `--gate <baseline.json>` compares each
// mode's mutations/sec against a recorded smoke baseline through
// bench::host_gate and exits nonzero when a row drops below kHostGateSlack x
// baseline or has no baseline row. Results land in BENCH_ingest.json in the
// working directory.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "cyclops/algorithms/datasets.hpp"
#include "cyclops/common/args.hpp"
#include "cyclops/common/table.hpp"
#include "cyclops/ingest/ingestor.hpp"
#include "cyclops/ingest/trace.hpp"
#include "cyclops/service/snapshot.hpp"
#include "json.hpp"

namespace {

using namespace cyclops;

struct PublicationRow {
  std::string mode;  ///< "full" | "overlay"
  std::uint64_t ops = 0;
  std::uint64_t epochs = 0;
  double mutations_per_s = 0;
  double mean_staleness_ms = 0;
  double publish_s = 0;
};

/// Replays `trace` through an ingestor, in 32-op batches, into a 2x2-worker
/// snapshot store that publishes each epoch as a full copy or as an overlay
/// on the base.
PublicationRow publication_run(const char* mode, bool overlay, const graph::EdgeList& base,
                               const std::vector<ingest::MutationOp>& trace) {
  service::SnapshotConfig cfg;
  cfg.machines = 2;
  cfg.workers_per_machine = 2;
  cfg.overlay_publish = overlay;
  service::SnapshotStore store(base, cfg);
  ingest::MutationIngestor ingestor(store, {/*max_batch=*/32, /*max_delay_s=*/1e9});
  for (const ingest::MutationOp& op : trace) ingestor.offer(op);
  ingestor.flush();

  const ingest::IngestStats& s = ingestor.stats();
  return {mode, s.ops, s.batches, s.mutations_per_s(), 1e3 * s.mean_staleness_s(), s.publish_s};
}

void emit_json(bool smoke, const std::vector<PublicationRow>& pub) {
  bench::JsonWriter w("BENCH_ingest.json");
  if (!w.ok()) return;
  w.str("benchmark", "ingest").flag("smoke", smoke);
  w.num("gate_slack", "%.2f", bench::kHostGateSlack).begin_array("publication");
  for (const PublicationRow& r : pub) {
    w.row().str("mode", r.mode).count("ops", r.ops).count("epochs", r.epochs);
    w.num("mutations_per_sec", "%.1f", r.mutations_per_s);
    w.num("mean_staleness_ms", "%.4f", r.mean_staleness_ms).num("publish_s", "%.6f", r.publish_s);
  }
  w.end_array();
}

}  // namespace

int main(int argc, char** argv) {
  args::Parser p(argc, argv);
  const bool smoke = p.flag("--smoke");
  const std::string gate = p.get("--gate", std::string{});
  p.finish();

  // GWeb, the paper's web-graph workload, with adds between random vertices
  // and removes drawn from the trace's own earlier adds.
  const graph::EdgeList gweb = algo::make_gweb({smoke ? 0.05 : 0.4}).edges;
  ingest::TraceSpec spec;
  spec.ops = smoke ? 192 : 1024;
  spec.num_vertices = gweb.num_vertices();
  spec.seed = 7;
  const std::vector<ingest::MutationOp> trace = ingest::synth_trace(spec);

  const std::vector<PublicationRow> pub = {publication_run("full", false, gweb, trace),
                                           publication_run("overlay", true, gweb, trace)};
  Table pub_table({"mode", "ops", "epochs", "mut/s", "staleness(ms)", "publish(s)"});
  for (const PublicationRow& r : pub) {
    pub_table.add_row({r.mode, Table::fmt_int(static_cast<long long>(r.ops)),
                       Table::fmt_int(static_cast<long long>(r.epochs)),
                       Table::fmt(r.mutations_per_s, 0), Table::fmt(r.mean_staleness_ms, 4),
                       Table::fmt(r.publish_s, 4)});
  }
  std::fputs(pub_table.render("Publication: full copy vs structural-sharing overlay").c_str(),
             stdout);

  emit_json(smoke, pub);
  if (gate.empty()) return 0;
  std::vector<bench::GateRow> gated;
  for (const PublicationRow& r : pub) gated.push_back({{{"mode", r.mode}}, r.mutations_per_s});
  return bench::host_gate(gate, "mutations_per_sec", gated);
}
