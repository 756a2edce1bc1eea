#pragma once
// Automated crash recovery around the engine shell's run loop, in three
// modes. run_with_recovery() owns the whole fault lifecycle:
//
//   1. build an engine (caller's factory). The engine's Config carries the
//      shared FaultInjector and, for log-based modes, the shared MessageLog;
//      the coordinator reads both from the engine it builds and checks that
//      every later incarnation shares the same two objects;
//   2. attach a CheckpointManager so the shell checkpoints every N
//      superstep boundaries (per-machine framesets, see checkpoint.hpp);
//   3. run. If the fabric throws FaultError (machine crash at a barrier),
//      the incarnation is dead: discard it, build a replacement, restore the
//      latest integrity-checked snapshot (or replay from superstep 0 when
//      none exists or it is corrupt), and run again. The injector and log
//      outlive incarnations, so a one-shot crash does not re-fire during
//      replay and logged packages survive the crash.
//
// Recovery modes (FTPregel's conventional vs. log-based recovery):
//
//   * kRollback — global rollback-and-replay. Every machine rolls back to
//     the checkpoint and redoes every lost superstep. Charged: detection +
//     full snapshot read + the full cluster cost of the replayed window.
//   * kLog — localized replay. Only the failed machine rolls back; the
//     survivors stay at the crash superstep, idle-charging nothing beyond
//     detection, and re-send the replayer its logged inbound packages
//     instead of recomputing them (the replayer's outbound to survivors is
//     suppressed — they already received it). Charged: detection + the
//     failed machine's checkpoint frame read + the failed machine's compute
//     share of the window + the logged re-feed wire time.
//   * kLogParallel — re-partitioned parallel replay. The dead machine's
//     partition is split across all K = machines - 1 survivors, each
//     replaying a slice concurrently, then merged back. Charged like kLog
//     with the compute share and the log re-feed each divided by K (slices
//     replay — and are re-fed — over K distinct links at once), plus the
//     scatter/merge transfer of the dead machine's frame.
//
// The simulated cluster executes the replay window deterministically in all
// three modes (one process holds every machine; determinism is what makes
// re-execution produce the machine's lost state bit-for-bit). What differs
// is verification and accounting: in log-based modes the fabric's replay
// window byte-compares every re-sent remote package against the MessageLog
// and the wire digest is seeded across incarnations, so a log-recovered run
// must end with the exact digest of a fault-free run — the simulator's proof
// that log replay is sound. The cost model then charges each mode what the
// real cluster would pay, mirroring how the wire itself is modeled.
//
// A snapshot that fails its CRC frame or truncates mid-read throws
// SerializeError; the coordinator counts it (RecoveryStats::
// corrupt_checkpoints), falls back to a from-scratch replay, and keeps
// going — restore is a recoverable operation by contract.

#include <algorithm>
#include <memory>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "cyclops/common/check.hpp"
#include "cyclops/common/serialize.hpp"
#include "cyclops/metrics/recovery_stats.hpp"
#include "cyclops/metrics/superstep_stats.hpp"
#include "cyclops/runtime/checkpoint.hpp"
#include "cyclops/sim/fault.hpp"
#include "cyclops/sim/message_log.hpp"

namespace cyclops::runtime {

enum class RecoveryMode : std::uint8_t { kRollback = 0, kLog = 1, kLogParallel = 2 };

[[nodiscard]] inline const char* recovery_mode_name(RecoveryMode m) noexcept {
  switch (m) {
    case RecoveryMode::kRollback: return "rollback";
    case RecoveryMode::kLog: return "log";
    case RecoveryMode::kLogParallel: return "log-parallel";
  }
  return "?";
}

/// CLI-facing parse; returns false on an unknown name.
[[nodiscard]] inline bool parse_recovery_mode(std::string_view name,
                                              RecoveryMode& out) noexcept {
  if (name == "rollback") out = RecoveryMode::kRollback;
  else if (name == "log") out = RecoveryMode::kLog;
  else if (name == "log-parallel") out = RecoveryMode::kLogParallel;
  else return false;
  return true;
}

/// The fault injector and the message log come from the engines themselves
/// (EngineConfig::faults / message_log); a log-based mode requires a log in
/// the engine's Config (checked), and rollback needs none.
struct RecoveryOptions {
  Superstep checkpoint_every = 0;  ///< 0 = no periodic checkpoints
  CheckpointMode mode = CheckpointMode::kLightweight;
  RecoveryMode recovery = RecoveryMode::kRollback;
  std::size_t max_recoveries = 8;  ///< give up (rethrow) after this many crashes
};

template <typename Engine>
struct RecoveryOutcome {
  metrics::RunStats run;  ///< stats of the final, successful run segment
  metrics::RecoveryStats recovery;
  std::unique_ptr<Engine> engine;  ///< the surviving incarnation (for values())
};

/// Runs `make_engine()`'s product to completion, recovering automatically
/// from injected machine crashes. Every engine the factory builds must share
/// the first one's Config::faults and Config::message_log (checked); `store`
/// overrides the default in-memory checkpoint store.
template <typename MakeEngine>
auto run_with_recovery(MakeEngine&& make_engine, const RecoveryOptions& opts,
                       CheckpointStore* store = nullptr) {
  using EnginePtr = std::invoke_result_t<MakeEngine&>;
  using Engine = typename EnginePtr::element_type;

  MemoryCheckpointStore default_store;
  CheckpointManager manager(opts.checkpoint_every, opts.mode,
                            store != nullptr ? store : &default_store);

  EnginePtr engine = make_engine();
  engine->set_checkpoint_manager(&manager);
  sim::FaultInjector* const faults = engine->config().faults.get();
  sim::MessageLog* const log = engine->config().message_log.get();
  const bool localized = opts.recovery != RecoveryMode::kRollback;
  CYCLOPS_CHECK(!localized || log != nullptr);

  RecoveryOutcome<Engine> out;
  auto fresh = [&] {
    EnginePtr next = make_engine();
    CYCLOPS_CHECK(next->config().faults.get() == faults);
    CYCLOPS_CHECK(next->config().message_log.get() == log);
    next->set_checkpoint_manager(&manager);
    return next;
  };

  // One record per recovery cycle; the replay surcharge is priced after the
  // final segment completes, from its per-superstep stats.
  struct Window {
    Superstep resume_at = 0;
    Superstep until = 0;  ///< crash superstep
    MachineId dead = sim::kNoMachine;
  };
  std::vector<Window> windows;
  // Supersteps already folded into the wire digest by crashed incarnations:
  // the replay/digest-suppression window must extend to the *furthest* crash
  // seen, or a double fault inside a replay window would double-fold.
  Superstep digest_covered_until = 0;

  for (std::size_t attempt = 0;; ++attempt) {
    try {
      out.run = engine->run();
      break;
    } catch (const sim::FaultError& fault) {
      ++out.recovery.faults_detected;
      if (attempt + 1 >= opts.max_recoveries) throw;

      // The failure-detection clock: peers discover the dead machine when
      // its barrier contribution times out (--detection-timeout-us).
      double recover_us = faults != nullptr ? faults->plan().detection_timeout_us : 0.0;

      // The crashed fabric's digest covers every exchange before the crash —
      // the continuity seed for a log-based replacement.
      const std::uint64_t crashed_digest = engine->fabric().wire_digest();
      digest_covered_until = std::max(digest_covered_until, fault.superstep());

      // Replacement machine joins; roll back to the latest usable snapshot.
      engine = fresh();
      Superstep restored_at = 0;
      std::size_t snapshot_bytes = 0;
      std::uint64_t dead_frame_bytes = 0;
      try {
        if (auto snapshot = manager.load_latest()) {
          ByteReader reader(snapshot->second);
          engine->restore(reader);
          restored_at = snapshot->first;
          snapshot_bytes = snapshot->second.size();
          const FramesetDirectory dir = probe_frameset(snapshot->second);
          if (fault.machine() < dir.frame_bytes.size()) {
            dead_frame_bytes = dir.frame_bytes[fault.machine()];
          }
        }
      } catch (const SerializeError&) {
        // Unusable (truncated/corrupt) checkpoint: count it and replay from
        // superstep 0 on a clean engine — restore() may have partially
        // applied. Silent fallback was a bug: operators read "0 lost
        // supersteps since the checkpoint" while the run actually redid
        // everything.
        ++out.recovery.corrupt_checkpoints;
        engine = fresh();
        restored_at = 0;
        snapshot_bytes = 0;
        dead_frame_bytes = 0;
      }

      if (snapshot_bytes > 0) {
        // Rollback re-reads the whole frameset on every machine; localized
        // recovery ships only the dead machine's frame to its replacement.
        recover_us += manager.cost().read_us(
            localized ? static_cast<std::size_t>(dead_frame_bytes) : snapshot_bytes);
      }
      if (localized && opts.recovery == RecoveryMode::kLogParallel) {
        // Re-partitioned replay: scatter the dead machine's frame slices to
        // the survivors, merge the replayed state back afterwards.
        recover_us += manager.cost().read_us(dead_frame_bytes) +
                      manager.cost().write_us(dead_frame_bytes);
      }

      if (localized) {
        // Arm the replay window on the new incarnation: verified log replay,
        // digest continuity, and no re-appending until the window closes.
        engine->arm_replay(restored_at, digest_covered_until, fault.machine(),
                           crashed_digest);
        // Entries older than the restore point can never be replayed again.
        log->truncate_before(restored_at);
      }

      windows.push_back(Window{restored_at, fault.superstep(), fault.machine()});
      const Superstep lost =
          fault.superstep() > restored_at ? fault.superstep() - restored_at : 0;
      out.recovery.lost_supersteps += lost;
      out.recovery.modeled_recovery_s += recover_us * 1e-6;
      ++out.recovery.recoveries;
    }
  }

  // Price the replay windows from the final segment's per-superstep stats
  // (deterministic replay makes them representative of the lost work; a
  // superstep replayed by several incarnations is charged once, at the
  // final segment's cost). Rollback charges the full cluster; log-based
  // modes charge the failed machine's share plus the logged re-feed wire.
  if (!windows.empty()) {
    const sim::Topology& topo = engine->fabric().topology();
    const MachineId machines = std::max<MachineId>(1, topo.machines);
    // kLogParallel's replayers: every survivor.
    const std::size_t k = machines > 1 ? machines - 1 : 1;
    double surcharge_us = 0;
    for (const metrics::SuperstepStats& s : out.run.supersteps) {
      bool in_window = false;
      for (const Window& w : windows) {
        if (s.superstep >= w.resume_at && s.superstep < w.until) {
          in_window = true;
          break;
        }
      }
      if (!in_window) continue;
      const double full_s = s.total_time_s();
      out.recovery.replay_window_s += full_s;
      if (!localized) {
        surcharge_us += full_s * 1e6;
      } else {
        // The replayer redoes one machine's partition: its share of the
        // cluster's modeled work (partitions are balanced by construction).
        // Survivors idle — no wire, no barrier — except for re-feeding the
        // log, priced below. kLogParallel splits the share across K
        // survivors replaying slices concurrently.
        double share_s =
            (s.phases.prs_s + s.phases.cmp_s + s.phases.snd_s) / machines;
        if (opts.recovery == RecoveryMode::kLogParallel) {
          share_s /= static_cast<double>(k);
        }
        surcharge_us += share_s * 1e6;
      }
    }
    if (localized) {
      for (const Window& w : windows) {
        double refeed_us = log->refeed_wire_us(topo, engine->fabric().cost_model(), w.dead,
                                               w.resume_at, w.until);
        if (opts.recovery == RecoveryMode::kLogParallel) {
          // Each slice replayer is re-fed its own portion of the dead
          // machine's inbound log concurrently, over K distinct links.
          refeed_us /= static_cast<double>(k);
        }
        surcharge_us += refeed_us;
      }
    }
    out.recovery.modeled_recovery_s += surcharge_us * 1e-6;
  }

  out.recovery.checkpoints_taken = manager.checkpoints_taken();
  out.recovery.checkpoint_bytes_written = manager.bytes_written();
  out.recovery.last_checkpoint_bytes = manager.last_checkpoint_bytes();
  out.recovery.modeled_checkpoint_s = manager.modeled_checkpoint_s();
  if (log != nullptr) {
    const sim::MessageLogStats& ls = log->stats();
    out.recovery.log_bytes = ls.logged_bytes;
    out.recovery.log_packages = ls.logged_packages;
    out.recovery.replay_verified_packages = ls.verified_packages;
    out.recovery.replay_log_mismatches =
        ls.mismatched_packages + ls.missing_packages;
  }
  if (faults != nullptr) {
    const sim::FaultStats& fs = faults->stats();
    out.recovery.dropped_packages = fs.dropped_packages;
    out.recovery.corrupted_packages = fs.corrupted_packages;
    out.recovery.retransmissions = fs.retransmissions;
    out.recovery.modeled_fault_overhead_s = fs.modeled_fault_overhead_s;
  }
  out.engine = std::move(engine);
  return out;
}

}  // namespace cyclops::runtime
