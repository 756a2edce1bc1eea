// Recovery benchmark — two comparisons in one binary, both PageRank with
// periodic checkpoints and one injected machine crash:
//
//   1. Checkpoint cost (§3.6, FTPregel-style): Cyclops checkpoints are cheap
//      because replicas and in-flight messages regenerate from the immutable
//      view, while Hama/BSP must also persist every pending in-queue
//      message. Claim: cyclops-lightweight last checkpoint < hama-heavyweight.
//
//   2. Recovery mode (log-based localized recovery): on the same Cyclops
//      configuration, rollback vs log vs log-parallel. Rollback re-executes
//      the lost window on every machine; log replays only the failed
//      machine, re-feeding its inbound packages from the message log;
//      log-parallel re-partitions the dead machine's share across the K
//      survivors. Claim: on GWeb, log and log-parallel cut the modeled
//      time-to-recover by >= 5x vs rollback. The recovery-mode cells use an
//      aggressive failure detector (10ms) so the comparison measures replay
//      work, not a detection constant charged equally to every mode.
//
// `--smoke` shrinks the datasets for CI (the 5x claim is checked loosely
// there — detection floors compress the ratio at toy scale); `--gate
// <baseline.json>` compares each recovery-mode row's modeled_recovery_s
// against a recorded baseline and exits nonzero when any row exceeds
// baseline / GATE_SLACK (order-of-magnitude regressions, not host jitter).
// Emits BENCH_recovery.json for tooling.

#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "cyclops/common/args.hpp"
#include "cyclops/common/table.hpp"
#include "cyclops/graph/csr.hpp"
#include "cyclops/runtime/recovery.hpp"
#include "cyclops/sim/fault.hpp"
#include "cyclops/sim/message_log.hpp"
#include "harness.hpp"
#include "json.hpp"

namespace {

using namespace cyclops;
using namespace cyclops::bench;

constexpr double kGateSlack = 0.15;  ///< current <= baseline / slack passes

struct Row {
  std::string section;  ///< "checkpoint" (cost comparison) | "recovery" (mode cells)
  std::string dataset;
  std::string engine;
  std::string mode;
  std::string recovery;
  metrics::RecoveryStats rec;
  double total_s = 0;
  std::size_t supersteps = 0;
};

constexpr Superstep kCheckpointEvery = 5;
constexpr Superstep kCrashAt = 12;
// Recovery-mode cells model the deployment log-based recovery is built for:
// checkpoints are rare (they cost stable-storage writes every interval, so
// operators stretch them), which makes the replay window long — here the
// crash at superstep 24 rolls back to the superstep-0 snapshot, losing 24
// supersteps. Rollback re-executes that window on all six machines;
// log-based modes replay one machine's share of it. The detector is an
// aggressive 1ms lease so the comparison measures replay work, not a
// detection constant charged equally to every mode.
constexpr Superstep kModeCheckpointEvery = 25;
constexpr Superstep kModeCrashAt = 24;
constexpr double kModeDetectionUs = 1000.0;

sim::FaultPlan crash_plan(Superstep crash_at, double detection_us) {
  sim::FaultPlan plan;
  plan.seed = 42;
  plan.crash_at = crash_at;
  plan.crash_machine = 1;
  plan.detection_timeout_us = detection_us;
  return plan;
}

/// One PageRank cell through the job catalog: `kind` on kMachines ×
/// workers/kMachines (PowerGraph one partition per machine), crashing as
/// `plan` says and recovering as `ropts` says — for log-based modes with a
/// message log shared between the fabric and the recovery coordinator.
Row run_recovery_cell(const char* section, const algo::Dataset& d, const graph::Csr& g,
                      const RunOptions& opts, algo::EngineKind kind, const sim::FaultPlan& plan,
                      const runtime::RecoveryOptions& ropts) {
  const algo::ClusterShape shape{.machines = kMachines,
                                 .workers_per_machine = opts.workers / kMachines,
                                 .max_supersteps = kMaxSupersteps};
  return algo::with_job(
      g, algo::Algo::kPageRank, kind, {.epsilon = kEpsilon}, shape,
      [&]<typename Engine>(std::type_identity<Engine>, const auto& prog, auto cfg) {
        cfg.faults = std::make_shared<sim::FaultInjector>(plan);
        if (ropts.recovery != runtime::RecoveryMode::kRollback) {
          cfg.message_log = std::make_shared<sim::MessageLog>();
        }
        const auto part = make_partition<Engine>(g, opts, cfg.topo.total_workers());
        auto outcome = runtime::run_with_recovery(
            [&] { return std::make_unique<Engine>(g, part, prog, cfg); }, ropts);
        Row row;
        row.section = section;
        row.dataset = d.name;
        row.engine = algo::label(kind);
        row.mode = runtime::checkpoint_mode_name(ropts.mode);
        row.recovery = runtime::recovery_mode_name(ropts.recovery);
        row.rec = outcome.recovery;
        row.total_s = outcome.run.total_time_s() + outcome.recovery.modeled_checkpoint_s +
                      outcome.recovery.modeled_recovery_s;
        row.supersteps = outcome.run.supersteps.size();
        return row;
      });
}

/// A checkpoint-cost cell: rollback recovery from the crash at kCrashAt.
Row run_checkpoint_cell(const algo::Dataset& d, const graph::Csr& g, const RunOptions& opts,
                        algo::EngineKind kind, runtime::CheckpointMode mode) {
  return run_recovery_cell("checkpoint", d, g, opts, kind,
                           crash_plan(kCrashAt, sim::FaultPlan{}.detection_timeout_us),
                           {.checkpoint_every = kCheckpointEvery, .mode = mode});
}

/// One recovery-mode cell: Cyclops, lightweight checkpoints, the aggressive
/// detector.
Row run_cyclops_mode(const algo::Dataset& d, const graph::Csr& g, const RunOptions& opts,
                     runtime::RecoveryMode recovery) {
  return run_recovery_cell("recovery", d, g, opts, algo::EngineKind::kCyclops,
                           crash_plan(kModeCrashAt, kModeDetectionUs),
                           {.checkpoint_every = kModeCheckpointEvery,
                            .mode = runtime::CheckpointMode::kLightweight,
                            .recovery = recovery});
}

// ------------------------------------------------------------------- gate

int apply_gate(const std::string& baseline_path, const std::vector<Row>& rows) {
  const std::optional<std::string> json = read_baseline(baseline_path);
  if (!json) return 1;
  int failures = 0;
  for (const Row& r : rows) {
    const double base = baseline_value(
        *json,
        {{"section", r.section}, {"dataset", r.dataset}, {"engine", r.engine},
         {"mode", r.mode}, {"recovery", r.recovery}},
        "modeled_recovery_s");
    if (base <= 0) {
      std::fprintf(stderr, "gate: no baseline row for %s/%s/%s — skipping\n",
                   r.dataset.c_str(), r.engine.c_str(), r.recovery.c_str());
      continue;
    }
    // Lower is better for a recovery time: fail only past baseline / slack.
    const double ceiling = base / kGateSlack;
    const bool ok = r.rec.modeled_recovery_s <= ceiling;
    std::printf("gate: %-8s %-12s  %.4gs vs baseline %.4gs (ceiling %.4gs) %s\n",
                r.dataset.c_str(), r.recovery.c_str(), r.rec.modeled_recovery_s, base,
                ceiling, ok ? "ok" : "FAIL");
    if (!ok) ++failures;
  }
  return failures == 0 ? 0 : 1;
}

// ------------------------------------------------------------------- output

void emit_json(const std::vector<Row>& rows, bool ckpt_claim, double log_speedup,
               double parallel_speedup, bool speedup_claim) {
  JsonWriter w("BENCH_recovery.json");
  if (!w.ok()) return;
  w.str("benchmark", "recovery").count("checkpoint_every", kCheckpointEvery);
  w.count("crash_at", kCrashAt).count("mode_checkpoint_every", kModeCheckpointEvery);
  w.count("mode_crash_at", kModeCrashAt).num("mode_detection_us", "%.0f", kModeDetectionUs);
  w.num("gate_slack", "%.2f", kGateSlack);
  w.flag("cyclops_lightweight_smaller_than_bsp_heavyweight", ckpt_claim);
  w.num("gweb_log_recovery_speedup", "%.2f", log_speedup);
  w.num("gweb_log_parallel_recovery_speedup", "%.2f", parallel_speedup);
  w.flag("gweb_log_recovery_speedup_at_least_5x", speedup_claim).begin_array("rows");
  for (const Row& r : rows) {
    const metrics::RecoveryStats& s = r.rec;
    w.row().str("section", r.section).str("dataset", r.dataset).str("engine", r.engine);
    w.str("mode", r.mode).str("recovery", r.recovery).count("supersteps", r.supersteps);
    w.count("checkpoints", s.checkpoints_taken);
    w.count("checkpoint_bytes", s.checkpoint_bytes_written);
    w.count("last_checkpoint_bytes", s.last_checkpoint_bytes);
    w.num("modeled_checkpoint_s", "%.6f", s.modeled_checkpoint_s);
    w.count("lost_supersteps", s.lost_supersteps);
    w.num("modeled_recovery_s", "%.6f", s.modeled_recovery_s);
    w.num("replay_window_s", "%.6f", s.replay_window_s);
    w.count("log_bytes", s.log_bytes).count("log_packages", s.log_packages);
    w.count("replay_verified_packages", s.replay_verified_packages);
    w.count("replay_log_mismatches", s.replay_log_mismatches).num("total_s", "%.6f", r.total_s);
  }
  w.end_array();
  std::puts("wrote BENCH_recovery.json");
}

}  // namespace

int main(int argc, char** argv) {
  args::Parser p(argc, argv);
  const bool smoke = p.flag("--smoke");
  const std::string gate = p.get("--gate", std::string{});
  p.finish();

  const algo::DatasetScale scale{smoke ? 0.25 : 1.0, 2014};
  const auto datasets = {algo::make_gweb(scale), algo::make_amazon(scale),
                         algo::make_syn_gl(scale)};
  const RunOptions opts;

  std::vector<Row> rows;
  bool ckpt_claim = true;
  double log_speedup = 0;
  double parallel_speedup = 0;
  Table ckpt_table({"dataset", "engine", "mode", "ckpts", "ckpt bytes", "last ckpt",
                    "write(s)", "lost ss", "recover(s)", "total(s)"});
  Table mode_table({"dataset", "recovery", "lost ss", "log MB", "verified", "window(s)",
                    "recover(s)", "speedup"});
  for (const auto& d : datasets) {
    const graph::Csr g = graph::Csr::build(d.edges);
    using algo::EngineKind;
    using runtime::CheckpointMode;
    const Row hama =
        run_checkpoint_cell(d, g, opts, EngineKind::kHama, CheckpointMode::kHeavyweight);
    const Row cy_light =
        run_checkpoint_cell(d, g, opts, EngineKind::kCyclops, CheckpointMode::kLightweight);
    const Row cy_heavy =
        run_checkpoint_cell(d, g, opts, EngineKind::kCyclops, CheckpointMode::kHeavyweight);
    const Row pg = run_checkpoint_cell(d, g, opts, EngineKind::kGas, CheckpointMode::kLightweight);
    // The §3.6 claim: a lightweight Cyclops checkpoint (masters only, replicas
    // regenerate) is strictly smaller than what BSP must persist (vertex
    // state + every pending in-queue message).
    ckpt_claim = ckpt_claim &&
                 cy_light.rec.last_checkpoint_bytes < hama.rec.last_checkpoint_bytes;
    for (const Row& r : {hama, cy_light, cy_heavy, pg}) {
      ckpt_table.add_row(
          {r.dataset, r.engine, r.mode, Table::fmt_int(r.rec.checkpoints_taken),
           Table::fmt_int(r.rec.checkpoint_bytes_written),
           Table::fmt_int(r.rec.last_checkpoint_bytes),
           Table::fmt(r.rec.modeled_checkpoint_s, 3),
           Table::fmt_int(r.rec.lost_supersteps),
           Table::fmt(r.rec.modeled_recovery_s, 3), Table::fmt(r.total_s, 3)});
      rows.push_back(r);
    }

    // Recovery-mode comparison: same engine, same checkpoint cadence, same
    // crash — only the recovery strategy differs.
    const Row rb = run_cyclops_mode(d, g, opts, runtime::RecoveryMode::kRollback);
    const Row lg = run_cyclops_mode(d, g, opts, runtime::RecoveryMode::kLog);
    const Row lp = run_cyclops_mode(d, g, opts, runtime::RecoveryMode::kLogParallel);
    for (const Row& r : {rb, lg, lp}) {
      const double speedup = r.rec.modeled_recovery_s > 0
                                 ? rb.rec.modeled_recovery_s / r.rec.modeled_recovery_s
                                 : 0.0;
      mode_table.add_row(
          {r.dataset, r.recovery, Table::fmt_int(r.rec.lost_supersteps),
           Table::fmt(static_cast<double>(r.rec.log_bytes) / (1 << 20), 2),
           Table::fmt_int(r.rec.replay_verified_packages),
           Table::fmt(r.rec.replay_window_s, 3), Table::fmt(r.rec.modeled_recovery_s, 4),
           Table::fmt(speedup, 1)});
      rows.push_back(r);
      if (d.name == "GWeb") {
        if (r.recovery == "log") log_speedup = speedup;
        if (r.recovery == "log-parallel") parallel_speedup = speedup;
      }
    }
  }
  std::fputs(ckpt_table
                 .render("Checkpoint cost: PageRank with checkpoint-every-5 and a "
                         "machine crash at superstep 12")
                 .c_str(),
             stdout);
  std::fputs(mode_table
                 .render("Recovery mode: Cyclops lightweight, rare checkpoints "
                         "(every 25), crash at superstep 24, 1ms detector — "
                         "rollback vs localized log replay")
                 .c_str(),
             stdout);
  std::printf("Cyclops lightweight checkpoint < BSP heavyweight checkpoint: %s\n",
              ckpt_claim ? "yes" : "NO (regression!)");
  // At smoke scale the fixed detection/frame-read floors compress the ratio,
  // so the 5x bar applies only to the full-size run; smoke still requires
  // log-based recovery to beat rollback at all.
  const double bar = smoke ? 1.0 : 5.0;
  const bool speedup_claim = log_speedup >= bar && parallel_speedup >= bar;
  std::printf("GWeb modeled-recovery speedup vs rollback: log %.1fx, log-parallel %.1fx "
              "(bar %.0fx): %s\n",
              log_speedup, parallel_speedup, bar, speedup_claim ? "yes" : "NO (regression!)");
  emit_json(rows, ckpt_claim, log_speedup, parallel_speedup, speedup_claim);

  int rc = (ckpt_claim && speedup_claim) ? 0 : 1;
  if (!gate.empty()) rc |= apply_gate(gate, rows);
  return rc;
}
