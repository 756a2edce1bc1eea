#pragma once
// The engine shell: everything around a superstep that the three execution
// models (BSP/Hama, Cyclops immutable view, PowerGraph GAS) share, written
// once. The paper's engines differ only in what happens *inside* a superstep;
// the superstep loop itself, the host pool, the simulated fabric, the
// exchange accounting, the modeled phase clock (PhaseLedger), the invariant
// checker, and the lifecycle wiring between them — fault injection, message
// logging, schedule exploration, spill budget, periodic checkpoints,
// localized-recovery replay — are the same machinery.
//
// The shell owns the superstep counter, so checkpoint/restore and continued
// runs (extend_max_supersteps, topology mutation) observe one authoritative
// position in the computation.
//
// An engine derives from EngineShell<Engine, Config> (CRTP) and keeps only:
//   * its phase logic:     bool run_superstep(metrics::SuperstepStats&);
//                          run_superstep charges each executor's modeled work
//                          to ledger_; run() turns the charges into phases.
//   * its frame codec:     void checkpoint_machine(MachineId, ByteWriter&,
//                                                  CheckpointMode) const;
//                          void restore_machine(MachineId, ByteReader&);
//                          void after_restore();  // derived-state resync
//   * its constants:       kCheckpointMode (its natural snapshot mode),
//                          kCost / kSoftware (wire and per-op cost models),
//                          kWireIsChurn (whether the exchanged traffic *is*
//                          its transient message allocation).
// The hooks may be private if the engine befriends its shell.
//
// runtime/ sits below graph/ and partition/, so the shell never sees the
// GraphStore: engines pass the store's message budget and memory numbers in
// as plain integers.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>

#include "cyclops/common/serialize.hpp"
#include "cyclops/common/thread_pool.hpp"
#include "cyclops/common/timer.hpp"
#include "cyclops/common/types.hpp"
#include "cyclops/metrics/memory_model.hpp"
#include "cyclops/metrics/superstep_stats.hpp"
#include "cyclops/runtime/checkpoint.hpp"
#include "cyclops/runtime/exchange_accounting.hpp"
#include "cyclops/runtime/phase_ledger.hpp"
#include "cyclops/sim/cost_model.hpp"
#include "cyclops/sim/fabric.hpp"
#include "cyclops/sim/fault.hpp"
#include "cyclops/sim/message_log.hpp"
#include "cyclops/sim/sched.hpp"
#include "cyclops/verify/verify.hpp"

namespace cyclops::runtime {

/// Configuration every engine shares; each engine's Config derives from it
/// and adds its own knobs (superstep cap, combiner, thread decomposition).
struct EngineConfig {
  sim::Topology topo;            ///< total_workers() == number of graph partitions
  std::size_t pool_threads = 1;  ///< host threads executing the simulation

  /// Fault schedule shared across engine incarnations of a recovering run
  /// (see sim/fault.hpp); null runs fault-free.
  std::shared_ptr<sim::FaultInjector> faults;

  /// Message log for log-based localized recovery, shared across engine
  /// incarnations like the injector (see sim/message_log.hpp); null disables
  /// logging. Requires `faults` — the log keys on the injector's clock.
  std::shared_ptr<sim::MessageLog> message_log;

  /// Seeded schedule explorer installed on the engine's pool: permutes task
  /// order per parallel region so N seeds explore N interleavings, each
  /// bit-identically replayable (see sim/sched.hpp). Null runs the pool's
  /// native static schedule.
  std::shared_ptr<sim::ScheduleExplorer> schedule;
};

template <typename Derived, typename Config>
class EngineShell {
 public:
  /// Runs supersteps to termination (the engine's own stop rule) or to the
  /// superstep cap, which is re-read every call so runs can be continued.
  /// Each superstep's phase times are read off the ledger it charged.
  metrics::RunStats run() {
    metrics::RunStats stats;
    const Superstep cap = superstep_cap();
    for (bool done = false; !done;) {
      // The fault clock and the invariant checker both key on the
      // authoritative superstep counter.
      if (config_.faults) config_.faults->begin_superstep(superstep_);
      vcheck_.begin_superstep(superstep_);
      metrics::SuperstepStats step;
      step.superstep = superstep_;
      ledger_.clear();
      done = derived().run_superstep(step);
      step.phases = ledger_.phases();
      stats.supersteps.push_back(std::move(step));
      stats.peak_buffered_bytes =
          std::max(stats.peak_buffered_bytes, acct_.peak_buffered_bytes());
      if (observer_) observer_(stats.supersteps.back(), derived());
      ++superstep_;
      if (superstep_ >= cap) done = true;
      // Periodic checkpoint, taken at the quiescent point just after the
      // barrier — every engine's state is at a superstep boundary here.
      if (!done && checkpoints_ != nullptr && checkpoints_->due(superstep_)) {
        ByteWriter snapshot;
        checkpoint(snapshot, checkpoints_->mode());
        checkpoints_->commit(superstep_, snapshot.take());
      }
    }
    stats.ingress_s = ingress_s_;
    return stats;
  }

  /// Per-superstep observer: called after each superstep's stats are folded
  /// into the run, with the engine itself, so it can read values() or any
  /// other engine state (convergence tracking, RMSE, replica checks).
  using Observer = std::function<void(const metrics::SuperstepStats&, const Derived&)>;
  void set_observer(Observer fn) { observer_ = std::move(fn); }

  [[nodiscard]] const sim::Fabric& fabric() const noexcept { return fabric_; }
  [[nodiscard]] Superstep superstep() const noexcept { return superstep_; }
  [[nodiscard]] const Config& config() const noexcept { return config_; }

  /// The engine's invariant checker (a no-op object unless built with
  /// -DCYCLOPS_VERIFY). Exposed so the CLI can print its summary and tests
  /// can install a collecting violation handler.
  [[nodiscard]] verify::EngineChecker& verifier() noexcept { return vcheck_; }
  [[nodiscard]] const verify::EngineChecker& verifier() const noexcept { return vcheck_; }

  // --- Checkpointing (§3.6). The snapshot is a per-machine frameset
  // (checkpoint.hpp): each machine's frame holds its own workers' state, so
  // localized recovery can reload just the failed machine's frame. What a
  // frame carries in each mode is the engine's codec. ---
  void checkpoint(ByteWriter& out, CheckpointMode mode = Derived::kCheckpointMode) const {
    write_frameset(out, config_.topo.machines, [&](MachineId m, ByteWriter& frame) {
      derived().checkpoint_machine(m, frame, mode);
    });
  }

  /// Throws SerializeError (recoverable) on truncated, corrupt, or
  /// wrong-shape snapshots; the engine may be left partially restored, so
  /// callers discard it on failure. Derived state (replicas, mirrors) is
  /// resynchronized afterwards — idempotent after a heavyweight restore.
  void restore(ByteReader& in) {
    read_frameset(in, config_.topo.machines, [&](MachineId m, ByteReader& frame) {
      derived().restore_machine(m, frame);
    });
    derived().after_restore();
  }

  /// Arms a localized-recovery replay window on this incarnation (log-based
  /// modes only): the fabric byte-verifies re-sent traffic against the log
  /// and continues the crashed incarnation's wire digest, so finishing the
  /// run proves replay fidelity. See runtime/recovery.hpp.
  void arm_replay(Superstep resume_at, Superstep until, MachineId dead,
                  std::uint64_t digest_seed) {
    fabric_.begin_replay(resume_at, until, dead);
    fabric_.seed_wire_digest(digest_seed);
    vcheck_.note_replay_window(resume_at, until);
  }

  /// Arms periodic checkpointing: run() snapshots this engine through
  /// `manager` every interval supersteps. Not owned; nullptr detaches.
  void set_checkpoint_manager(CheckpointManager* manager) noexcept {
    checkpoints_ = manager;
  }

 protected:
  /// Wires the shared machinery from `config`: fabric faults, message log,
  /// pool schedule, and the store's message budget (0 = unbounded). `lanes`
  /// is the fabric's sender lanes per worker; `executors` the ledger's
  /// simulated executors per worker.
  EngineShell(Config config, std::uint64_t message_budget_bytes, std::size_t lanes = 1,
              std::size_t executors = 1)
      : config_(std::move(config)),
        pool_(config_.pool_threads),
        fabric_(config_.topo, Derived::kCost, lanes),
        ledger_(config_.topo.total_workers() * executors) {
    if (config_.faults) fabric_.install_faults(config_.faults.get());
    if (config_.message_log) fabric_.install_log(config_.message_log.get());
    if (config_.schedule) pool_.set_task_order(config_.schedule.get());
    arm_store_budget(message_budget_bytes);
  }

  /// Repositions the computation; engines call it from restore_machine.
  void set_superstep(Superstep s) noexcept { superstep_ = s; }

  /// Counts exchange buffering above the store's budget as spill bytes;
  /// a zero budget (fully in-memory store) leaves the accounting unbounded.
  void arm_store_budget(std::uint64_t budget_bytes) {
    if (budget_bytes > 0) acct_.arm_spill(budget_bytes);
  }

  /// Runs `build` (layout/replica construction), adds its host time to the
  /// ingress total run() reports, and returns that time.
  template <typename Build>
  double timed_ingress(Build&& build) {
    Timer timer;
    build();
    const double elapsed = timer.elapsed_s();
    ingress_s_ += elapsed;
    return elapsed;
  }

  /// One barrier exchange among `participants`, folded into the superstep's
  /// traffic and modeled wire/barrier time and into the exchange accounting.
  void exchange(metrics::SuperstepStats& step, std::size_t participants) {
    const sim::ExchangeStats x = fabric_.exchange(participants);
    acct_.note_exchange(x);
    if constexpr (Derived::kWireIsChurn) acct_.note_net(x.net);
    step.net += x.net;
    step.modeled_comm_s += x.modeled_comm_s;
    step.modeled_barrier_s += x.modeled_barrier_s;
  }

  /// Completes a memory report whose engine-specific vertex, adjacency and
  /// replica bytes are filled in: adds the store's resident/on-disk split
  /// and the message accounting (peak buffering capped at the spill budget,
  /// spill, churn, message count).
  [[nodiscard]] metrics::MemoryReport with_store_and_messages(
      metrics::MemoryReport r, std::uint64_t store_resident_bytes,
      std::uint64_t store_on_disk_bytes) const noexcept {
    r.store_resident_bytes = store_resident_bytes;
    r.store_on_disk_bytes = store_on_disk_bytes;
    r.vertex_state_bytes += store_resident_bytes;
    r.peak_message_bytes = acct_.peak_buffered_bytes();
    if (const std::uint64_t budget = acct_.spill_budget_bytes(); budget > 0) {
      r.peak_message_bytes = std::min(r.peak_message_bytes, budget);
    }
    r.message_spill_bytes = acct_.spill_bytes();
    r.message_churn_bytes = acct_.churn_bytes();
    r.message_alloc_count =
        Derived::kWireIsChurn ? acct_.messages() : fabric_.totals().total_messages();
    return r;
  }

  /// Machine m's workers are the contiguous range [m*W, (m+1)*W): partitions
  /// are assigned to workers in machine-major order (Topology::machine_of).
  [[nodiscard]] std::pair<WorkerId, WorkerId> machine_workers(MachineId m) const noexcept {
    const WorkerId per = config_.topo.workers_per_machine;
    return {m * per, (m + 1) * per};
  }

  Config config_;
  ThreadPool pool_;
  sim::Fabric fabric_;
  ExchangeAccounting acct_;
  PhaseLedger ledger_;
  verify::EngineChecker vcheck_;

 private:
  [[nodiscard]] Derived& derived() noexcept { return static_cast<Derived&>(*this); }
  [[nodiscard]] const Derived& derived() const noexcept {
    return static_cast<const Derived&>(*this);
  }

  /// GAS names its cap max_iterations (PowerGraph's term); the others
  /// count supersteps.
  [[nodiscard]] Superstep superstep_cap() const noexcept {
    if constexpr (requires { config_.max_iterations; }) {
      return config_.max_iterations;
    } else {
      return config_.max_supersteps;
    }
  }

  Superstep superstep_ = 0;
  CheckpointManager* checkpoints_ = nullptr;
  double ingress_s_ = 0;
  Observer observer_;
};

}  // namespace cyclops::runtime
