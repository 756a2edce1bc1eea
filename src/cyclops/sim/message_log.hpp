#pragma once
// Per-machine outgoing-message logs for log-based localized recovery
// (FTPregel's lightweight logging, ROADMAP item 2). The Fabric appends every
// *remote* package it delivers — keyed by (superstep, exchange-within-step,
// src worker, send lane, dst worker) — so that after a machine crash only the failed
// machine replays: survivors re-feed the replayer its logged inbound streams
// instead of recomputing, and the replayer's outbound to survivors is
// suppressed (they already received it).
//
// The simulator exercises that contract by re-executing the replay window
// deterministically and byte-comparing every re-sent remote package against
// its logged copy (MessageLog::verify_replayed); a single differing byte is
// a mismatch, counted and surfaced through RecoveryStats. Combined with the
// wire-digest continuity check in Fabric (PR 4), this proves replay fidelity
// bit-for-bit rather than assuming it.
//
// Two backings, selected by LogStoreKind:
//   * kMemory — payloads live in one append-only byte arena.
//   * kSpill  — payloads go to an unlinked spill file (the StreamStore
//     pattern: created, unlinked, held open — it vanishes with the process),
//     read back via pread only when a replay verifies. Each spilled payload
//     is CRC-framed on the way in and integrity-checked on the way out
//     (common/crc32.hpp), so at-rest bit rot is detected, not replayed.
//
// One log outlives every engine incarnation of a recovering run (share it
// via Config::message_log, exactly like Config::faults): entries appended by
// a crashed incarnation are what the replacement verifies against.

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "cyclops/common/types.hpp"
#include "cyclops/sim/cost_model.hpp"

namespace cyclops::sim {

enum class LogStoreKind : std::uint8_t { kMemory = 0, kSpill = 1 };

struct MessageLogStats {
  std::uint64_t logged_packages = 0;
  std::uint64_t logged_messages = 0;
  std::uint64_t logged_bytes = 0;  ///< payload bytes (framing excluded)
  // Replay-fidelity accounting, filled during localized recovery.
  std::uint64_t verified_packages = 0;  ///< replayed packages byte-identical to log
  std::uint64_t verified_bytes = 0;
  std::uint64_t mismatched_packages = 0;  ///< replayed bytes differ from log
  std::uint64_t missing_packages = 0;     ///< replayed package never logged
};

class MessageLog {
 public:
  struct Entry {
    Superstep superstep = 0;
    std::uint64_t exchange = 0;  ///< exchange index within the superstep
    WorkerId from = 0;
    std::uint64_t lane = 0;  ///< sender lane (MT engines send one package per
                             ///< compute thread, all with the same from/to)
    WorkerId to = 0;
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;   ///< payload length
    std::uint32_t crc = 0;     ///< CRC-32 of the payload at log time
    std::uint64_t offset = 0;  ///< arena / spill-file payload offset
  };

  /// kMemory needs no arguments; kSpill creates its scratch file under
  /// `spill_dir` (empty = /tmp). Throws std::runtime_error when the spill
  /// file cannot be created.
  explicit MessageLog(LogStoreKind kind = LogStoreKind::kMemory,
                      std::string spill_dir = {});
  ~MessageLog();
  MessageLog(const MessageLog&) = delete;
  MessageLog& operator=(const MessageLog&) = delete;

  [[nodiscard]] LogStoreKind kind() const noexcept { return kind_; }

  /// Appends one remote package's payload. Called by Fabric::exchange as it
  /// drains each (from, lane, to) outbox buffer; replayed exchanges must NOT
  /// be re-appended (the Fabric's replay window guards this).
  void append(Superstep superstep, std::uint64_t exchange, WorkerId from,
              std::uint64_t lane, WorkerId to, std::uint64_t messages,
              std::span<const std::uint8_t> payload, std::uint32_t crc);

  /// Byte-compares a replayed package against its logged copy and updates
  /// the verified/mismatched/missing counters. Returns true only on a
  /// bit-identical match.
  bool verify_replayed(Superstep superstep, std::uint64_t exchange, WorkerId from,
                       std::uint64_t lane, WorkerId to,
                       std::span<const std::uint8_t> payload);

  /// Entry metadata lookup (no payload IO). Null when never logged.
  [[nodiscard]] const Entry* find(Superstep superstep, std::uint64_t exchange,
                                  WorkerId from, std::uint64_t lane,
                                  WorkerId to) const;

  /// Metadata-only scan over every entry with superstep in [begin, end), in
  /// deterministic key order. Recovery uses it to price the re-feed wire
  /// time of a replay window without touching payloads.
  template <typename Fn>
  void for_each(Superstep begin, Superstep end, Fn&& fn) const {
    for (const auto& [key, idx] : index_) {
      const Entry& e = entries_[idx];
      if (e.superstep < begin) continue;
      if (e.superstep >= end) break;  // index_ is ordered by superstep first
      fn(e);
    }
  }

  /// Modeled wire time (µs) to re-send every logged remote package bound for
  /// machine `dead` within supersteps [begin, end) — the survivors' only
  /// replay-phase work besides idling. Each package re-sends as one bulk
  /// frame (single RPC + bytes); the per-message marshalling was paid when
  /// the package was first built and logged.
  [[nodiscard]] double refeed_wire_us(const Topology& topo, const CostModel& model,
                                      MachineId dead, Superstep begin,
                                      Superstep end) const;

  /// Drops the index entries older than `superstep` (a recovery never
  /// replays earlier than the checkpoint it restored, so anything older is
  /// garbage). Payload bytes are not reclaimed — the arena/spill file is
  /// scratch space, not a database — and the logged_* stats stay cumulative.
  void truncate_before(Superstep superstep);

  [[nodiscard]] const MessageLogStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t entry_count() const noexcept { return index_.size(); }

 private:
  // Superstep stays first: truncate_before and for_each rely on the index
  // being ordered by superstep. The lane distinguishes the per-compute-thread
  // packages an MT engine sends between the same (from, to) pair.
  using Key = std::tuple<Superstep, std::uint64_t, WorkerId, std::uint64_t, WorkerId>;

  /// Reads one logged payload back (arena copy or spill pread) and validates
  /// its at-rest CRC frame. Throws std::runtime_error on IO failure.
  [[nodiscard]] std::vector<std::uint8_t> read_payload(const Entry& e) const;

  LogStoreKind kind_;
  int spill_fd_ = -1;
  std::uint64_t spill_tail_ = 0;  ///< next write offset in the spill file
  std::vector<std::uint8_t> arena_;
  std::vector<Entry> entries_;
  std::map<Key, std::size_t> index_;  ///< ordered: deterministic iteration
  MessageLogStats stats_;
};

}  // namespace cyclops::sim
