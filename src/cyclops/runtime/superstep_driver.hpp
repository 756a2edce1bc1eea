#pragma once
// The engine-independent superstep skeleton. All three execution models
// (BSP/Hama, Cyclops immutable view, PowerGraph GAS) share the same outer
// loop: run one superstep, accumulate its stats, notify the observer, bump
// the counter, stop on termination or on the superstep cap. Only the body of
// a superstep — which paper phases (PRS/CMP/SND/SYN) run and how — differs,
// so the driver takes it as a callback and the engines keep just their
// genuinely distinct phase logic.
//
// The driver owns the superstep counter so checkpoint/restore and multi-run
// continuation (extend_max_supersteps, topology mutation) observe one
// authoritative position in the computation.

#include <algorithm>
#include <functional>
#include <utility>

#include "cyclops/common/serialize.hpp"
#include "cyclops/common/types.hpp"
#include "cyclops/metrics/superstep_stats.hpp"
#include "cyclops/runtime/checkpoint.hpp"
#include "cyclops/runtime/exchange_accounting.hpp"
#include "cyclops/sim/fault.hpp"
#include "cyclops/verify/verify.hpp"

namespace cyclops::runtime {

class SuperstepDriver {
 public:
  /// Runs supersteps until `step` reports termination or `max_supersteps` is
  /// reached (the cap is re-read every run() so callers may extend it between
  /// runs). `step` executes one superstep into the provided SuperstepStats
  /// (its `superstep` field is pre-filled) and returns true when the
  /// computation has terminated. `notify` fires once per completed superstep,
  /// after the step's stats are folded into the run totals — engines adapt it
  /// to their observer signature.
  template <typename StepFn, typename NotifyFn>
  metrics::RunStats run(Superstep max_supersteps, const ExchangeAccounting& acct,
                        StepFn&& step, NotifyFn&& notify) {
    metrics::RunStats stats;
    bool done = false;
    while (!done) {
      if (faults_ != nullptr) faults_->begin_superstep(superstep_);
      // The invariant checker observes every superstep boundary so violation
      // reports carry the authoritative superstep counter.
      if (checker_ != nullptr) checker_->begin_superstep(superstep_);
      metrics::SuperstepStats s;
      s.superstep = superstep_;
      done = step(s);
      stats.supersteps.push_back(s);
      stats.peak_buffered_bytes =
          std::max(stats.peak_buffered_bytes, acct.peak_buffered_bytes());
      notify(stats.supersteps.back());
      ++superstep_;
      if (superstep_ >= max_supersteps) done = true;
      // Periodic checkpoint, taken at the quiescent point just after the
      // barrier — every engine's state is at a superstep boundary here.
      if (!done && checkpoint_ != nullptr && checkpoint_->due(superstep_)) {
        ByteWriter snapshot;
        save_(snapshot);
        checkpoint_->commit(superstep_, snapshot.take());
      }
    }
    return stats;
  }

  [[nodiscard]] Superstep superstep() const noexcept { return superstep_; }

  /// Repositions the computation (checkpoint restore).
  void set_superstep(Superstep s) noexcept { superstep_ = s; }

  /// Arms the driver's fault clock: the injector is repositioned at the top
  /// of every superstep so exchange-level faults know where they fire.
  /// Not owned; nullptr disarms.
  void set_fault_injector(sim::FaultInjector* injector) noexcept { faults_ = injector; }

  /// Attaches the engine's invariant checker (CYCLOPS_VERIFY builds); the
  /// driver keeps its superstep counter current. Not owned; nullptr detaches.
  void set_checker(verify::EngineChecker* checker) noexcept { checker_ = checker; }

  /// Attaches periodic checkpointing: when `manager` says a boundary is due,
  /// `save` serializes the engine into the provided writer (engines bind
  /// their checkpoint(ByteWriter&, mode) here). Not owned; nullptr detaches.
  void set_checkpointer(CheckpointManager* manager,
                        std::function<void(ByteWriter&)> save) {
    checkpoint_ = manager;
    save_ = std::move(save);
  }

 private:
  Superstep superstep_ = 0;
  sim::FaultInjector* faults_ = nullptr;
  verify::EngineChecker* checker_ = nullptr;
  CheckpointManager* checkpoint_ = nullptr;
  std::function<void(ByteWriter&)> save_;
};

}  // namespace cyclops::runtime
