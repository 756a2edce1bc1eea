#pragma once
// Deterministic fault injection for the simulated cluster (the robustness
// counterpart of §3.6). A FaultPlan is a seeded schedule of machine crashes,
// package drops, in-flight byte corruption, and per-machine straggler delay;
// a FaultInjector interprets the plan at the Fabric's exchange barrier.
//
// Honesty rules, matching the rest of the simulator:
//   * Faults never silently change delivered payloads. Drops and corruptions
//     are absorbed by the fabric's reliable-delivery layer (detect via the
//     per-Package CRC32, "retransmit" the pristine bytes) and show up only as
//     modeled time charged through the CostModel plus FaultStats counters —
//     so a faulty run converges to bit-identical results.
//   * Machine crashes are fatal to the run: the exchange throws FaultError
//     and the engine incarnation is dead. Recovery is the job of
//     runtime::RecoveryCoordinator (fresh engine + checkpoint restore).
//   * Every decision derives from (seed, superstep, exchange, src, dst) by
//     stateless hashing, so an identical seed yields an identical fault
//     schedule regardless of host threading, and a replayed superstep sees
//     exactly the faults the original saw.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>

#include "cyclops/common/types.hpp"

namespace cyclops::sim {

inline constexpr Superstep kNeverCrash = std::numeric_limits<Superstep>::max();
inline constexpr MachineId kNoMachine = std::numeric_limits<MachineId>::max();

struct FaultPlan {
  std::uint64_t seed = 0;

  /// Crash machine `crash_machine` at the first exchange barrier of superstep
  /// `crash_at` (one-shot: the replacement machine does not re-crash).
  Superstep crash_at = kNeverCrash;
  MachineId crash_machine = 0;

  /// Optional second one-shot crash, for double-fault scenarios (e.g. a
  /// machine dying while a previous crash's replay is still in flight). Only
  /// armed when crash2_at != kNeverCrash; fires at most once, after the
  /// first crash has fired or independently if scheduled earlier.
  Superstep crash2_at = kNeverCrash;
  MachineId crash2_machine = 0;

  /// Probability that a (src, dst) package's first transmission is lost and
  /// must be retransmitted after a timeout.
  double drop_rate = 0.0;

  /// Probability that a package arrives with a flipped bit; caught by the
  /// per-Package CRC32 and retransmitted.
  double corrupt_rate = 0.0;

  /// Fixed extra wire time per exchange for one slow machine (kNoMachine
  /// disables). Models a degraded NIC / contended node.
  MachineId straggler_machine = kNoMachine;
  double straggler_delay_us = 0.0;

  /// Modeled time between a machine dying and the barrier timing out on it —
  /// the failure-detection latency the recovery clock starts with.
  double detection_timeout_us = 500000.0;  // 0.5 s, heartbeat-timeout scale

  /// Modeled retransmission penalty on top of re-paying the package's wire
  /// cost (timeout + re-request round trip).
  double retransmit_timeout_us = 200.0;

  [[nodiscard]] bool any_armed() const noexcept {
    return crash_at != kNeverCrash || crash2_at != kNeverCrash || drop_rate > 0 ||
           corrupt_rate > 0 ||
           (straggler_machine != kNoMachine && straggler_delay_us > 0);
  }
};

struct FaultStats {
  std::uint64_t dropped_packages = 0;    ///< first transmissions lost
  std::uint64_t corrupted_packages = 0;  ///< CRC mismatches detected
  std::uint64_t retransmissions = 0;     ///< drops + corruptions re-sent
  std::uint32_t crashes = 0;             ///< machine crashes fired
  double modeled_fault_overhead_s = 0;   ///< retransmit + straggler time

  FaultStats& operator+=(const FaultStats& o) noexcept {
    dropped_packages += o.dropped_packages;
    corrupted_packages += o.corrupted_packages;
    retransmissions += o.retransmissions;
    crashes += o.crashes;
    modeled_fault_overhead_s += o.modeled_fault_overhead_s;
    return *this;
  }
};

enum class FaultKind : std::uint8_t { kMachineCrash, kPackageDrop, kPackageCorruption };

/// Thrown out of Fabric::exchange() when an unrecoverable fault (machine
/// crash) fires. The engine incarnation that observes it is considered lost;
/// runtime::run_with_recovery catches it, discards the engine, and restores a
/// replacement from the latest checkpoint.
class FaultError : public std::runtime_error {
 public:
  FaultError(FaultKind kind, MachineId machine, Superstep superstep)
      : std::runtime_error("machine " + std::to_string(machine) +
                           " crashed at superstep " + std::to_string(superstep)),
        kind_(kind),
        machine_(machine),
        superstep_(superstep) {}

  [[nodiscard]] FaultKind kind() const noexcept { return kind_; }
  [[nodiscard]] MachineId machine() const noexcept { return machine_; }
  [[nodiscard]] Superstep superstep() const noexcept { return superstep_; }

 private:
  FaultKind kind_;
  MachineId machine_;
  Superstep superstep_;
};

/// Interprets a FaultPlan at exchange barriers. One injector outlives every
/// engine incarnation of a recovering run (share it via Config::faults), so
/// one-shot faults stay fired across rollback-and-replay.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan) noexcept : plan_(plan) {}

  /// Repositions the fault clock; called by the engine shell's run loop at the
  /// top of every superstep (also during replay, so replayed exchanges roll the same
  /// per-package faults the original run saw).
  void begin_superstep(Superstep s) noexcept {
    superstep_ = s;
    exchange_in_step_ = 0;
  }

  /// Called by the Fabric once per exchange, before any delivery.
  void begin_exchange() noexcept { ++exchange_in_step_; }

  /// The machine that dies at this exchange, or kNoMachine. Each scheduled
  /// crash fires exactly once — at the first exchange of its superstep — and
  /// stays fired across engine incarnations (replay does not re-crash).
  [[nodiscard]] MachineId crash_now() noexcept {
    if (!crash_fired_ && superstep_ == plan_.crash_at) {
      crash_fired_ = true;
      ++stats_.crashes;
      return plan_.crash_machine;
    }
    if (!crash2_fired_ && plan_.crash2_at != kNeverCrash &&
        superstep_ == plan_.crash2_at) {
      crash2_fired_ = true;
      ++stats_.crashes;
      return plan_.crash2_machine;
    }
    return kNoMachine;
  }

  [[nodiscard]] bool roll_drop(WorkerId from, WorkerId to) noexcept {
    if (plan_.drop_rate <= 0) return false;
    const bool hit = roll(1, from, to) < plan_.drop_rate;
    if (hit) {
      ++stats_.dropped_packages;
      ++stats_.retransmissions;
    }
    return hit;
  }

  struct BitFlip {
    std::size_t byte_index;
    std::uint8_t mask;
  };

  /// Decides whether the (from, to) package is corrupted in flight and which
  /// bit flips. The caller applies the flip, detects it against the package
  /// CRC, and re-applies it to model the retransmitted pristine copy.
  [[nodiscard]] std::optional<BitFlip> roll_corrupt(WorkerId from, WorkerId to,
                                                    std::size_t package_bytes) noexcept {
    if (plan_.corrupt_rate <= 0 || package_bytes == 0) return std::nullopt;
    if (roll(2, from, to) >= plan_.corrupt_rate) return std::nullopt;
    const std::uint64_t h = mix(3, from, to);
    ++stats_.corrupted_packages;
    ++stats_.retransmissions;
    return BitFlip{static_cast<std::size_t>(h % package_bytes),
                   static_cast<std::uint8_t>(1u << ((h >> 32) & 7u))};
  }

  [[nodiscard]] double straggler_extra_us(MachineId machine) const noexcept {
    return machine == plan_.straggler_machine ? plan_.straggler_delay_us : 0.0;
  }

  void charge_overhead_us(double us) noexcept {
    stats_.modeled_fault_overhead_s += us * 1e-6;
  }

  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }
  [[nodiscard]] const FaultStats& stats() const noexcept { return stats_; }
  [[nodiscard]] Superstep superstep() const noexcept { return superstep_; }
  /// 1-based exchange index within the current superstep (the message-log
  /// key component; bumped by begin_exchange before any delivery).
  [[nodiscard]] std::uint64_t exchange_in_step() const noexcept {
    return exchange_in_step_;
  }

 private:
  /// Stateless SplitMix64-style mix of the full fault coordinate.
  [[nodiscard]] std::uint64_t mix(std::uint64_t stream, WorkerId from,
                                  WorkerId to) const noexcept {
    std::uint64_t z = plan_.seed ^ (stream * 0x9e3779b97f4a7c15ULL);
    z ^= (static_cast<std::uint64_t>(superstep_) << 32) ^ exchange_in_step_;
    z ^= (static_cast<std::uint64_t>(from) << 20) ^ to;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Uniform double in [0, 1) from the mixed coordinate.
  [[nodiscard]] double roll(std::uint64_t stream, WorkerId from, WorkerId to) const noexcept {
    return static_cast<double>(mix(stream, from, to) >> 11) * 0x1.0p-53;
  }

  FaultPlan plan_;
  Superstep superstep_ = 0;
  std::uint64_t exchange_in_step_ = 0;
  bool crash_fired_ = false;
  bool crash2_fired_ = false;
  FaultStats stats_;
};

}  // namespace cyclops::sim
