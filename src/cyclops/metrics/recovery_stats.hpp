#pragma once
// Whole-run fault-tolerance accounting, surfaced next to RunStats by the
// recovery runtime (runtime::run_with_recovery) and reported by
// metrics::recovery_summary(). Checkpoint-side fields come from the
// CheckpointManager; fault/rollback fields from run_with_recovery's loop.

#include <cstdint>

namespace cyclops::metrics {

struct RecoveryStats {
  // Checkpoint side.
  std::uint64_t checkpoints_taken = 0;
  std::uint64_t checkpoint_bytes_written = 0;  ///< raw payload bytes, all checkpoints
  std::uint64_t last_checkpoint_bytes = 0;
  double modeled_checkpoint_s = 0;  ///< modeled stable-storage write time

  // Fault / recovery side.
  std::uint32_t faults_detected = 0;  ///< fatal faults (machine crashes) seen
  std::uint32_t recoveries = 0;       ///< successful rollback-and-replay cycles
  std::uint32_t corrupt_checkpoints = 0;  ///< snapshots rejected at restore time
  std::uint64_t lost_supersteps = 0;  ///< supersteps replayed across recoveries
  /// Modeled time-to-recover: failure detection + snapshot reload + the
  /// mode-dependent replay charge (full-cluster re-execution for rollback;
  /// the failed machine's compute share + logged re-feed wire for log-based
  /// modes — see runtime/recovery.hpp).
  double modeled_recovery_s = 0;

  // Log-based recovery (message logging + localized replay).
  std::uint64_t log_bytes = 0;     ///< message-log payload volume, cumulative
  std::uint64_t log_packages = 0;  ///< remote packages logged
  std::uint64_t replay_verified_packages = 0;  ///< replayed, byte-identical to log
  std::uint64_t replay_log_mismatches = 0;  ///< replayed but differing or unlogged
  /// Physical cost of the replayed supersteps inside the final run segment
  /// (the simulator re-executes the window deterministically; log-based
  /// modes charge only a slice of it to modeled_recovery_s).
  double replay_window_s = 0;

  // Absorbed wire faults (never fatal; charged to the cost model).
  std::uint64_t dropped_packages = 0;
  std::uint64_t corrupted_packages = 0;
  std::uint64_t retransmissions = 0;
  double modeled_fault_overhead_s = 0;
};

}  // namespace cyclops::metrics
