#pragma once
// Periodic checkpointing for the engine runtime layer (§3.6 made automatic).
// A CheckpointManager hangs off the engine shell's run loop: every N completed
// supersteps the shell serializes the engine, and the manager seals the
// snapshot in a CRC-framed envelope and hands it to a CheckpointStore
// (in-memory for simulated clusters, file-backed for durability tests). Restore goes the
// other way: open the latest frame (integrity-checked — a truncated or
// bit-flipped snapshot throws SerializeError, it never aborts), then feed the
// payload to the engine's restore().
//
// Checkpoint modes follow FTPregel's lightweight/heavyweight split:
//   * kLightweight — vertex state only. Cyclops saves just master values and
//     master shared data (replicas regenerate from the immutable view); GAS
//     saves masters (mirrors resync). BSP *cannot* shed its pending messages
//     — they are not derivable from vertex state — so its "lightweight"
//     checkpoint still carries the in-queues. That asymmetry is the paper's
//     §3.6 claim, measured by bench_paper's REC panel.
//   * kHeavyweight — full Pregel-style snapshot: everything above plus
//     replica/mirror state that could have been regenerated.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cyclops/common/crc32.hpp"
#include "cyclops/common/serialize.hpp"
#include "cyclops/common/types.hpp"

namespace cyclops::runtime {

enum class CheckpointMode : std::uint8_t { kLightweight = 0, kHeavyweight = 1 };

[[nodiscard]] inline const char* checkpoint_mode_name(CheckpointMode m) noexcept {
  return m == CheckpointMode::kLightweight ? "lightweight" : "heavyweight";
}

inline constexpr std::uint32_t kSnapshotMagic = 0x43594b50u;  // "CYKP"

/// Identifies which engine wrote a snapshot — restoring a BSP snapshot into
/// a Cyclops engine is a shape error, not a crash.
enum class EngineTag : std::uint8_t { kBsp = 1, kCyclops = 2, kGas = 3 };

/// Engine snapshot preamble: tag, mode, and the graph signature the snapshot
/// was taken against. Engines write it first so restore can fail fast (and
/// recoverably) on the wrong engine, mode, or graph.
inline void write_engine_header(ByteWriter& out, EngineTag tag, CheckpointMode mode,
                                std::uint64_t num_vertices, std::uint64_t num_edges) {
  // One-byte tag fields are the snapshot format, not accidental truncation.
  out.write(static_cast<std::uint8_t>(tag));   // cyclops-analyze: allow(wire-narrowing)
  out.write(static_cast<std::uint8_t>(mode));  // cyclops-analyze: allow(wire-narrowing)
  out.write(num_vertices);
  out.write(num_edges);
}

/// Validates the preamble and returns the snapshot's mode. Throws
/// SerializeError when the snapshot was written by another engine or against
/// a different graph.
[[nodiscard]] inline CheckpointMode read_engine_header(ByteReader& in, EngineTag expected,
                                                       std::uint64_t num_vertices,
                                                       std::uint64_t num_edges) {
  const auto tag = in.read<std::uint8_t>();
  if (tag != static_cast<std::uint8_t>(expected)) {
    throw SerializeError("snapshot engine tag mismatch: got " + std::to_string(tag) +
                         ", expected " + std::to_string(static_cast<int>(expected)));
  }
  const auto mode = in.read<std::uint8_t>();
  if (mode > static_cast<std::uint8_t>(CheckpointMode::kHeavyweight)) {
    throw SerializeError("snapshot mode byte corrupt");
  }
  const auto nv = in.read<std::uint64_t>();
  const auto ne = in.read<std::uint64_t>();
  if (nv != num_vertices || ne != num_edges) {
    throw SerializeError("snapshot graph mismatch: snapshot has " + std::to_string(nv) +
                         " vertices / " + std::to_string(ne) + " edges, engine has " +
                         std::to_string(num_vertices) + " / " + std::to_string(num_edges));
  }
  return static_cast<CheckpointMode>(mode);
}

// --- Per-machine framesets. An engine snapshot is not one opaque blob but a
// directory of per-machine frames, each individually CRC-stamped and
// self-describing (engine header + superstep + that machine's state slice):
//
//   [magic u32][machine_count u32] then per machine: [len u64][crc u32][frame]
//
// Localized recovery reads only the failed machine's frame (probe_frameset
// prices it without parsing engine state), and parallel re-partitioned
// recovery ships individual frames to survivors. The whole frameset is still
// sealed/opened as one snapshot at the store boundary. ---

inline constexpr std::uint32_t kFramesetMagic = 0x43594d46u;  // "CYMF"

/// Writes a frameset: `write_machine(m, frame_writer)` serializes machine
/// m's frame. Every engine's checkpoint() funnels through this so the
/// directory layout stays uniform across engines.
template <typename Fn>
void write_frameset(ByteWriter& out, MachineId machines, Fn&& write_machine) {
  out.write(kFramesetMagic);
  out.write(static_cast<std::uint32_t>(machines));
  for (MachineId m = 0; m < machines; ++m) {
    ByteWriter frame;
    write_machine(m, frame);
    const std::vector<std::uint8_t> bytes = frame.take();
    out.write(static_cast<std::uint64_t>(bytes.size()));
    out.write(crc32(bytes));
    out.write_bytes(bytes);
  }
}

/// Reads a frameset, handing each machine's integrity-checked frame to
/// `read_machine(m, frame_reader)`. Throws SerializeError on a bad magic,
/// machine-count mismatch, truncation, or per-frame CRC failure.
template <typename Fn>
void read_frameset(ByteReader& in, MachineId machines, Fn&& read_machine) {
  if (in.read<std::uint32_t>() != kFramesetMagic) {
    throw SerializeError("snapshot frameset: bad magic");
  }
  const auto count = in.read<std::uint32_t>();
  if (count != machines) {
    throw SerializeError("snapshot frameset: has " + std::to_string(count) +
                         " machine frames, engine topology has " +
                         std::to_string(machines));
  }
  for (MachineId m = 0; m < machines; ++m) {
    const auto len = in.read<std::uint64_t>();
    const auto crc = in.read<std::uint32_t>();
    if (len > in.remaining()) {
      throw SerializeError("snapshot frameset: machine " + std::to_string(m) +
                           " frame truncated");
    }
    const std::vector<std::uint8_t> bytes = in.read_bytes(len);
    if (crc32(bytes) != crc) {
      throw SerializeError("snapshot frameset: machine " + std::to_string(m) +
                           " frame corrupt (CRC mismatch)");
    }
    ByteReader frame(bytes);
    read_machine(m, frame);
  }
}

/// Frameset directory: per-machine frame payload sizes, read without parsing
/// engine state. Recovery uses it to charge a localized restore for only the
/// failed machine's frame.
struct FramesetDirectory {
  std::vector<std::uint64_t> frame_bytes;  ///< per-machine payload bytes
  std::uint64_t total_bytes = 0;           ///< sum of frame payloads
};

[[nodiscard]] inline FramesetDirectory probe_frameset(
    std::span<const std::uint8_t> payload) {
  ByteReader in(payload);
  if (in.read<std::uint32_t>() != kFramesetMagic) {
    throw SerializeError("snapshot frameset: bad magic");
  }
  const auto count = in.read<std::uint32_t>();
  FramesetDirectory dir;
  dir.frame_bytes.reserve(count);
  for (std::uint32_t m = 0; m < count; ++m) {
    const auto len = in.read<std::uint64_t>();
    (void)in.read<std::uint32_t>();  // per-frame CRC — not validated by a probe
    if (len > in.remaining()) {
      throw SerializeError("snapshot frameset: machine " + std::to_string(m) +
                           " frame truncated");
    }
    (void)in.read_bytes(len);
    dir.frame_bytes.push_back(len);
    dir.total_bytes += len;
  }
  return dir;
}

/// Wraps a raw engine snapshot in an integrity frame:
/// [magic u32][payload u64][crc32 u32][payload bytes].
[[nodiscard]] inline std::vector<std::uint8_t> seal_snapshot(
    std::vector<std::uint8_t> payload) {
  ByteWriter frame;
  frame.write(kSnapshotMagic);
  frame.write(static_cast<std::uint64_t>(payload.size()));
  frame.write(crc32(payload));
  frame.write_bytes(payload);
  return frame.take();
}

/// Validates a sealed frame and returns the payload. Throws SerializeError on
/// a bad magic, truncation, or CRC mismatch (bit flips at rest) — recovery
/// code treats that as "this checkpoint is unusable", not as fatal.
[[nodiscard]] inline std::vector<std::uint8_t> open_snapshot(
    std::span<const std::uint8_t> sealed) {
  ByteReader reader(sealed);
  if (reader.read<std::uint32_t>() != kSnapshotMagic) {
    throw SerializeError("snapshot frame: bad magic");
  }
  const auto size = reader.read<std::uint64_t>();
  const auto crc = reader.read<std::uint32_t>();
  if (size != reader.remaining()) {
    throw SerializeError("snapshot frame truncated: header says " +
                         std::to_string(size) + " payload bytes, " +
                         std::to_string(reader.remaining()) + " present");
  }
  std::vector<std::uint8_t> payload = reader.read_bytes(size);
  if (crc32(payload) != crc) {
    throw SerializeError("snapshot frame corrupt: CRC mismatch");
  }
  return payload;
}

/// Where sealed snapshots live. The store keeps only what recovery needs:
/// the most recent snapshot (rollback-and-replay never reaches further back)
/// plus write accounting for RecoveryStats.
class CheckpointStore {
 public:
  virtual ~CheckpointStore() = default;
  virtual void put(Superstep superstep, std::vector<std::uint8_t> sealed) = 0;
  /// Latest (superstep, sealed frame), or nullopt when nothing was saved.
  [[nodiscard]] virtual std::optional<std::pair<Superstep, std::vector<std::uint8_t>>>
  latest() const = 0;
};

class MemoryCheckpointStore final : public CheckpointStore {
 public:
  void put(Superstep superstep, std::vector<std::uint8_t> sealed) override {
    superstep_ = superstep;
    sealed_ = std::move(sealed);
    has_ = true;
  }
  [[nodiscard]] std::optional<std::pair<Superstep, std::vector<std::uint8_t>>> latest()
      const override {
    if (!has_) return std::nullopt;
    return std::make_pair(superstep_, sealed_);
  }

 private:
  bool has_ = false;
  Superstep superstep_ = 0;
  std::vector<std::uint8_t> sealed_;
};

/// One file per checkpoint under `dir`, newest replacing oldest: the
/// durable store, which the durability tests exercise.
class FileCheckpointStore final : public CheckpointStore {
 public:
  explicit FileCheckpointStore(std::string dir) : dir_(std::move(dir)) {}

  void put(Superstep superstep, std::vector<std::uint8_t> sealed) override {
    const std::string path = path_for(superstep);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(sealed.data()),
              static_cast<std::streamsize>(sealed.size()));
    out.flush();
    if (!out.good()) throw SerializeError("checkpoint write failed: " + path);
    if (has_ && superstep_ != superstep) std::remove(path_for(superstep_).c_str());
    superstep_ = superstep;
    has_ = true;
  }

  [[nodiscard]] std::optional<std::pair<Superstep, std::vector<std::uint8_t>>> latest()
      const override {
    if (!has_) return std::nullopt;
    std::ifstream in(path_for(superstep_), std::ios::binary);
    if (!in.good()) return std::nullopt;
    std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                    std::istreambuf_iterator<char>());
    return std::make_pair(superstep_, std::move(bytes));
  }

  [[nodiscard]] std::string path_for(Superstep s) const {
    return dir_ + "/ckpt_" + std::to_string(s) + ".bin";
  }

 private:
  std::string dir_;
  bool has_ = false;
  Superstep superstep_ = 0;
};

/// Modeled time to persist/reload snapshots (the simulated cluster has no
/// real distributed filesystem; like the wire, stable storage is a model).
/// Defaults approximate an HDFS-style replicated write at ~100 MB/s.
struct CheckpointCostModel {
  double write_base_us = 10000.0;   ///< open/commit/replicate fixed cost
  double write_per_byte_us = 0.01;  ///< ~100 MB/s replicated write
  double read_base_us = 5000.0;
  double read_per_byte_us = 0.005;  ///< ~200 MB/s read

  [[nodiscard]] double write_us(std::size_t bytes) const noexcept {
    return write_base_us + write_per_byte_us * static_cast<double>(bytes);
  }
  [[nodiscard]] double read_us(std::size_t bytes) const noexcept {
    return read_base_us + read_per_byte_us * static_cast<double>(bytes);
  }
};

/// Policy + bookkeeping for periodic checkpoints. The shell's run loop calls
/// due()/commit() at superstep boundaries; run_with_recovery calls
/// load_latest() after a fault.
class CheckpointManager {
 public:
  CheckpointManager(Superstep every, CheckpointMode mode, CheckpointStore* store)
      : every_(every), mode_(mode), store_(store) {}

  [[nodiscard]] Superstep interval() const noexcept { return every_; }
  [[nodiscard]] CheckpointMode mode() const noexcept { return mode_; }
  [[nodiscard]] CheckpointCostModel& cost() noexcept { return cost_; }

  /// True at superstep boundaries that the every-N policy selects.
  [[nodiscard]] bool due(Superstep completed) const noexcept {
    return every_ > 0 && completed > 0 && completed % every_ == 0 &&
           (!has_last_ || completed != last_superstep_);
  }

  /// Seals and stores one snapshot taken at `superstep`.
  void commit(Superstep superstep, std::vector<std::uint8_t> payload) {
    const std::size_t payload_bytes = payload.size();
    store_->put(superstep, seal_snapshot(std::move(payload)));
    has_last_ = true;
    last_superstep_ = superstep;
    ++checkpoints_taken_;
    bytes_written_ += payload_bytes;
    last_checkpoint_bytes_ = payload_bytes;
    modeled_checkpoint_s_ += cost_.write_us(payload_bytes) * 1e-6;
  }

  /// Opens the newest stored snapshot: (superstep, raw engine payload).
  /// Throws SerializeError if the frame fails integrity checks.
  [[nodiscard]] std::optional<std::pair<Superstep, std::vector<std::uint8_t>>>
  load_latest() const {
    auto sealed = store_->latest();
    if (!sealed) return std::nullopt;
    return std::make_pair(sealed->first, open_snapshot(sealed->second));
  }

  [[nodiscard]] std::uint64_t checkpoints_taken() const noexcept {
    return checkpoints_taken_;
  }
  [[nodiscard]] std::uint64_t bytes_written() const noexcept { return bytes_written_; }
  [[nodiscard]] std::uint64_t last_checkpoint_bytes() const noexcept {
    return last_checkpoint_bytes_;
  }
  [[nodiscard]] double modeled_checkpoint_s() const noexcept {
    return modeled_checkpoint_s_;
  }

 private:
  Superstep every_;
  CheckpointMode mode_;
  CheckpointStore* store_;
  CheckpointCostModel cost_;
  bool has_last_ = false;
  Superstep last_superstep_ = 0;
  std::uint64_t checkpoints_taken_ = 0;
  std::uint64_t bytes_written_ = 0;
  std::uint64_t last_checkpoint_bytes_ = 0;
  double modeled_checkpoint_s_ = 0;
};

}  // namespace cyclops::runtime
