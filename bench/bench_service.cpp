// Service benchmark — multi-tenant throughput and latency on the
// epoch-versioned snapshot service. Replays the same 48-job mixed workload
// (PageRank/SSSP/CC across Hama, Cyclops, CyclopsMT and GAS) spread over
// 1 / 4 / 16 tenants against a serialized one-at-a-time baseline, with a
// topology delta committed mid-stream so snapshot-transition overhead is
// part of the measurement. Modeled wire/barrier time is realized as
// wall-clock sleep (calibrated so sleep ~= 5x compute), which is what makes
// cross-tenant overlap physical: wire-wait from different tenants' jobs
// overlaps exactly as it would on a real cluster, while compute still
// contends for the host cores. Emits BENCH_service.json for tooling.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "cyclops/common/table.hpp"
#include "cyclops/common/timer.hpp"
#include "cyclops/service/service.hpp"
#include "harness.hpp"
#include "json.hpp"

namespace {

using namespace cyclops;
using service::Algo;
using service::EngineKind;

struct JobTemplate {
  Algo algo;
  EngineKind engine;
};

// The per-tenant job mix, cycled round-robin. Every engine family appears so
// the scheduler interleaves heterogeneous run times.
const JobTemplate kMix[] = {
    {Algo::kPageRank, EngineKind::kCyclops}, {Algo::kSssp, EngineKind::kHama},
    {Algo::kCc, EngineKind::kCyclopsMT},     {Algo::kPageRank, EngineKind::kGas},
    {Algo::kSssp, EngineKind::kCyclops},     {Algo::kPageRank, EngineKind::kHama},
    {Algo::kCc, EngineKind::kCyclops},       {Algo::kSssp, EngineKind::kGas},
};
constexpr std::size_t kJobs = 48;

struct ScenarioResult {
  std::string name;
  std::size_t tenants = 1;
  std::size_t slots = 1;
  std::size_t completed = 0;
  double makespan_s = 0;
  double throughput_jps = 0;  ///< completed jobs per second of makespan
  double p50_s = 0, p95_s = 0, p99_s = 0;  ///< submit-to-finish latency
  std::uint64_t epochs_published = 0;
  double snapshot_build_total_s = 0;
  double snapshot_build_last_s = 0;
};

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(p * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

service::JobSpec make_spec(std::size_t i, std::size_t tenants) {
  service::JobSpec spec;
  spec.algo = kMix[i % std::size(kMix)].algo;
  spec.engine = kMix[i % std::size(kMix)].engine;
  spec.tenant = "tenant-" + std::to_string(i % tenants);
  spec.params.epsilon = 1e-6;
  spec.max_supersteps = 40;
  return spec;
}

/// One serial probe job measures compute vs modeled comm, so the realize
/// factor can be set to make sleep ~= 5x compute regardless of host speed.
double calibrate_realize(const graph::EdgeList& edges) {
  service::ServiceConfig cfg;
  cfg.scheduler.workers = 1;
  service::Service svc(edges, cfg);
  const auto sub = svc.submit(make_spec(0, 1));
  svc.wait_all();
  const auto stats = svc.scheduler().stats_for(sub.id);
  svc.shutdown();
  if (stats.modeled_comm_s <= 0) return 1.0;
  return std::max(1.0, 5.0 * stats.run_s / stats.modeled_comm_s);
}

ScenarioResult run_scenario(const std::string& name, const graph::EdgeList& edges,
                            std::size_t tenants, std::size_t slots,
                            std::size_t per_tenant, double realize) {
  service::ServiceConfig cfg;
  cfg.scheduler.workers = slots;
  cfg.scheduler.max_queue = kJobs + 8;
  cfg.scheduler.per_tenant_running = per_tenant;
  cfg.scheduler.realize_modeled_factor = realize;
  service::Service svc(edges, cfg);

  Timer wall;
  for (std::size_t i = 0; i < kJobs; ++i) {
    if (i == kJobs / 2) {
      // Mid-stream mutation batch: later jobs pin the new epoch while the
      // first half keeps running against epoch 0.
      core::TopologyDelta delta;
      delta.add_edge(0, 7, 2.0);
      delta.add_edge(7, 0, 2.0);
      delta.remove_edge(1, 2);
      svc.apply_delta(delta);
    }
    const auto sub = svc.submit(make_spec(i, tenants));
    if (!sub.accepted) {
      std::fprintf(stderr, "%s: unexpected rejection: %s\n", name.c_str(),
                   sub.reason.c_str());
    }
  }
  svc.wait_all();

  ScenarioResult r;
  r.name = name;
  r.tenants = tenants;
  r.slots = svc.scheduler().worker_slots();
  r.makespan_s = wall.elapsed_s();
  std::vector<double> latencies;
  for (const auto& js : svc.scheduler().all_stats()) {
    if (js.outcome != "ok") continue;
    ++r.completed;
    latencies.push_back(js.queue_wait_s + js.run_s);
  }
  r.throughput_jps = r.makespan_s > 0 ? static_cast<double>(r.completed) / r.makespan_s : 0;
  r.p50_s = percentile(latencies, 0.50);
  r.p95_s = percentile(latencies, 0.95);
  r.p99_s = percentile(latencies, 0.99);
  const auto snap = svc.snapshots().stats();
  r.epochs_published = snap.epochs_published;
  r.snapshot_build_total_s = snap.total_build_s;
  r.snapshot_build_last_s = snap.last_build_s;
  svc.shutdown();
  return r;
}

void emit_json(const std::vector<ScenarioResult>& rows, double realize,
               double speedup, bool claim_holds) {
  bench::JsonWriter w("BENCH_service.json");
  if (!w.ok()) return;
  w.str("bench", "service").count("jobs_per_scenario", kJobs);
  w.num("realize_modeled_factor", "%.3f", realize);
  w.num("speedup_4_tenants_vs_serialized", "%.3f", speedup);
  w.flag("claim_speedup_gt_2x", claim_holds).begin_array("scenarios");
  for (const auto& r : rows) {
    w.row().str("name", r.name).count("tenants", r.tenants).count("slots", r.slots);
    w.count("completed", r.completed).num("makespan_s", "%.4f", r.makespan_s);
    w.num("throughput_jobs_per_s", "%.3f", r.throughput_jps);
    w.num("latency_p50_s", "%.4f", r.p50_s).num("latency_p95_s", "%.4f", r.p95_s);
    w.num("latency_p99_s", "%.4f", r.p99_s).count("epochs_published", r.epochs_published);
    w.num("snapshot_build_total_s", "%.4f", r.snapshot_build_total_s);
    w.num("snapshot_build_last_s", "%.4f", r.snapshot_build_last_s);
  }
  w.end_array();
  std::puts("wrote BENCH_service.json");
}

}  // namespace

int main(int argc, char** argv) {
  args::Parser p(argc, argv);
  algo::DatasetScale scale;
  scale.factor = p.get("--scale", 0.05);
  p.finish();

  algo::Dataset d = algo::make_gweb(scale);
  std::printf("dataset: %s\n", d.describe().c_str());

  const double realize = calibrate_realize(d.edges);
  std::printf("realize factor %.2f (sleep ~= 5x compute)\n", realize);

  std::vector<ScenarioResult> rows;
  rows.push_back(run_scenario("serialized", d.edges, 1, 1, 1, realize));
  rows.push_back(run_scenario("tenants-1", d.edges, 1, 8, 2, realize));
  rows.push_back(run_scenario("tenants-4", d.edges, 4, 8, 2, realize));
  rows.push_back(run_scenario("tenants-16", d.edges, 16, 8, 2, realize));

  Table t({"scenario", "tenants", "slots", "done", "makespan(s)", "jobs/s",
           "p50(s)", "p95(s)", "p99(s)", "epochs", "build(s)"});
  for (const auto& r : rows) {
    t.add_row({r.name, Table::fmt_int(r.tenants), Table::fmt_int(r.slots),
               Table::fmt_int(r.completed), Table::fmt(r.makespan_s, 3),
               Table::fmt(r.throughput_jps, 2), Table::fmt(r.p50_s, 3),
               Table::fmt(r.p95_s, 3), Table::fmt(r.p99_s, 3),
               Table::fmt_int(r.epochs_published),
               Table::fmt(r.snapshot_build_total_s, 4)});
  }
  std::fputs(t.render("Service: multi-tenant throughput/latency, 48 mixed jobs")
                 .c_str(),
             stdout);

  const double speedup =
      rows[0].throughput_jps > 0 ? rows[2].throughput_jps / rows[0].throughput_jps : 0;
  const bool claim_holds = speedup > 2.0;
  std::printf("aggregate throughput, 4 tenants vs serialized: %.2fx -> claim "
              "(> 2x): %s\n",
              speedup, claim_holds ? "yes" : "NO (regression!)");
  emit_json(rows, realize, speedup, claim_holds);
  return claim_holds ? 0 : 1;
}
