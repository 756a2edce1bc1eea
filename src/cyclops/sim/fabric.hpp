#pragma once
// The simulated cluster interconnect. Workers write logical messages into
// per-destination outboxes during a superstep; exchange() plays the global
// barrier: it bundles each non-empty (src, dst) buffer into one package (the
// Hama bundling optimization, §4.1), delivers packages to the destination
// worker's inbox, and accrues modeled wire time from the CostModel.
//
// Payload bytes really move through std::vector buffers — per-byte work is
// honest — but no sockets exist; latency/bandwidth are charged by the model.

#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

#include "cyclops/common/check.hpp"
#include "cyclops/common/crc32.hpp"
#include "cyclops/common/types.hpp"
#include "cyclops/sim/cost_model.hpp"
#include "cyclops/sim/counters.hpp"
#include "cyclops/sim/fault.hpp"
#include "cyclops/sim/message_log.hpp"

namespace cyclops::sim {

/// A bundle of messages from one worker to another within one superstep.
struct Package {
  WorkerId from = 0;
  std::uint64_t message_count = 0;
  std::vector<std::uint8_t> bytes;
  std::uint32_t crc = 0;  ///< CRC-32 of `bytes`, stamped at bundling time

  [[nodiscard]] bool verify() const noexcept { return crc32(bytes) == crc; }
};

/// Single-writer per lane: an engine gives each sending thread its own lane
/// (CyclopsMT's private out-queues, §5); a single-threaded worker uses lane 0.
class OutBox {
 public:
  OutBox() = default;
  void init(WorkerId num_workers) {
    buffers_.assign(num_workers, Buffer{});
  }

  /// Appends one logical message for `to`.
  void send(WorkerId to, std::span<const std::uint8_t> payload) {
    CYCLOPS_DCHECK(to < buffers_.size());
    Buffer& b = buffers_[to];
    b.bytes.insert(b.bytes.end(), payload.begin(), payload.end());
    ++b.messages;
  }

  /// Grows the destination buffer ahead of a batch of appends, so a
  /// superstep's sync traffic to `to` allocates once instead of per record
  /// (used by runtime::SyncChannel).
  void reserve(WorkerId to, std::size_t n_bytes) {
    CYCLOPS_DCHECK(to < buffers_.size());
    Buffer& b = buffers_[to];
    b.bytes.reserve(b.bytes.size() + n_bytes);
  }

  /// Appends one trivially-copyable record directly — same wire bytes as
  /// serializing through ByteWriter and send(), without the intermediate
  /// buffer round-trip.
  ///
  /// Records with internal padding (e.g. a {uint32, double} wire record) get
  /// their padding bits zeroed before hitting the buffer: padding content is
  /// unspecified garbage that would otherwise leak into package CRCs and the
  /// fabric's wire digest, breaking bit-identical traffic across runs.
  template <typename Record>
    requires std::is_trivially_copyable_v<Record>
  void send_record(WorkerId to, const Record& rec) {
    CYCLOPS_DCHECK(to < buffers_.size());
    Buffer& b = buffers_[to];
    if constexpr (std::has_unique_object_representations_v<Record>) {
      const auto* p = reinterpret_cast<const std::uint8_t*>(&rec);
      b.bytes.insert(b.bytes.end(), p, p + sizeof(Record));
    } else {
      Record clean = rec;
      __builtin_clear_padding(&clean);  // GCC/Clang >= 11; toolchain-pinned
      const auto* p = reinterpret_cast<const std::uint8_t*>(&clean);
      b.bytes.insert(b.bytes.end(), p, p + sizeof(Record));
    }
    ++b.messages;
  }

  [[nodiscard]] std::uint64_t pending_bytes() const noexcept {
    std::uint64_t total = 0;
    for (const Buffer& b : buffers_) total += b.bytes.size();
    return total;
  }

 private:
  friend class Fabric;
  struct Buffer {
    std::vector<std::uint8_t> bytes;
    std::uint64_t messages = 0;
  };
  std::vector<Buffer> buffers_;
};

struct ExchangeStats {
  NetSnapshot net;                ///< traffic moved by this exchange
  double modeled_comm_s = 0;      ///< max per-machine wire time
  double modeled_barrier_s = 0;   ///< barrier cost for the given participants
  std::uint64_t peak_buffered_bytes = 0;  ///< high-water mark of in-flight bytes
  std::uint64_t retransmitted_packages = 0;  ///< dropped or corrupted, re-sent
};

class Fabric {
 public:
  /// lanes_per_worker: number of independent sender lanes each worker gets.
  Fabric(Topology topo, CostModel model, std::size_t lanes_per_worker = 1);

  [[nodiscard]] const Topology& topology() const noexcept { return topo_; }
  [[nodiscard]] const CostModel& cost_model() const noexcept { return model_; }

  /// Lane `lane` of worker `from`. Each lane must have at most one concurrent
  /// writer; distinct lanes may be written from distinct threads.
  [[nodiscard]] OutBox& outbox(WorkerId from, std::size_t lane = 0) noexcept {
    CYCLOPS_DCHECK(from < topo_.total_workers() && lane < lanes_);
    return outboxes_[from * lanes_ + lane];
  }

  /// Global barrier: delivers every pending buffer as packages and charges
  /// modeled time. `barrier_participants` is the number of parties in the
  /// barrier protocol (workers for flat BSP, machines for the hierarchical
  /// CyclopsMT barrier).
  ///
  /// With a fault injector installed this is also the fault boundary: a
  /// scheduled machine crash throws FaultError before anything is delivered
  /// (the superstep's traffic is lost with the machine); package drops and
  /// CRC-detected corruption are absorbed by retransmission, charged through
  /// the cost model.
  ExchangeStats exchange(std::size_t barrier_participants);

  /// Installs (or clears, with nullptr) the fault injector consulted by
  /// exchange(). Not owned: a recovering run shares one injector across
  /// engine incarnations so one-shot faults stay fired through replay.
  void install_faults(FaultInjector* injector) noexcept { faults_ = injector; }
  [[nodiscard]] FaultInjector* faults() const noexcept { return faults_; }

  /// Installs (or clears) the per-machine message log that exchange()
  /// appends every remote package to. Not owned: like the fault injector,
  /// one log outlives every engine incarnation of a recovering run. Logging
  /// keys on the injector's (superstep, exchange) clock, so a log without an
  /// installed injector records nothing.
  void install_log(MessageLog* log) noexcept { log_ = log; }
  [[nodiscard]] MessageLog* log() const noexcept { return log_; }

  /// Localized-recovery replay window. While the injector's superstep is in
  /// [resume_at, until), exchange() verifies every remote package against
  /// the installed MessageLog byte-for-byte instead of re-appending it, and
  /// suppresses wire-digest folding: those packages were already folded by
  /// the crashed incarnation whose digest seeds this fabric (the logical
  /// cluster sent them exactly once). `dead` is the machine being replayed —
  /// recovery uses it for cost attribution; verification covers all remote
  /// traffic, which is the stronger fidelity check.
  struct ReplayWindow {
    bool active = false;
    Superstep resume_at = 0;
    Superstep until = 0;
    MachineId dead = kNoMachine;
  };

  void begin_replay(Superstep resume_at, Superstep until, MachineId dead) noexcept {
    replay_ = ReplayWindow{true, resume_at, until, dead};
  }
  [[nodiscard]] const ReplayWindow& replay() const noexcept { return replay_; }

  /// Seeds the digest with a predecessor incarnation's value so the fold
  /// continues across a crash: the crashed fabric folded supersteps
  /// [0, crash) exactly as a fault-free run would, the replay window skips
  /// re-folding them, and folding resumes at `until` — making the final
  /// digest of a log-recovered run bit-identical to the fault-free one.
  void seed_wire_digest(std::uint64_t digest) noexcept { wire_digest_ = digest; }

  /// Packages delivered to `to` by the latest exchange.
  [[nodiscard]] std::span<const Package> incoming(WorkerId to) const noexcept {
    CYCLOPS_DCHECK(to < topo_.total_workers());
    return inboxes_[to];
  }

  void clear_incoming(WorkerId to) noexcept { inboxes_[to].clear(); }

  /// Order-sensitive FNV-1a fold of every package delivered so far: (src,
  /// dst, message count, payload CRC) in delivery order, across exchanges.
  /// Two runs of the same seeded workload must produce identical digests —
  /// the differential harness (tests/test_differential.cpp) asserts this
  /// bit-for-bit, which is what makes hash-order iteration
  /// feeding an OutBox a test failure rather than a latent flake.
  [[nodiscard]] std::uint64_t wire_digest() const noexcept { return wire_digest_; }

  [[nodiscard]] NetSnapshot totals() const noexcept { return counters_.snapshot(); }
  [[nodiscard]] double total_modeled_comm_s() const noexcept { return modeled_comm_s_; }
  [[nodiscard]] double total_modeled_barrier_s() const noexcept { return modeled_barrier_s_; }

 private:
  Topology topo_;
  CostModel model_;
  std::size_t lanes_ = 1;
  std::vector<OutBox> outboxes_;             // [worker * lanes_ + lane]
  std::vector<std::vector<Package>> inboxes_;  // [worker]
  std::vector<double> machine_cost_us_;        // [machine], scratch of exchange()
  NetCounters counters_;
  FaultInjector* faults_ = nullptr;
  MessageLog* log_ = nullptr;
  ReplayWindow replay_;
  double modeled_comm_s_ = 0;
  double modeled_barrier_s_ = 0;
  std::uint64_t wire_digest_ = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
};

}  // namespace cyclops::sim
