#pragma once
// Per-superstep execution statistics shared by all engines. The phase split
// follows §3.5: message parsing (PRS), vertex computation (CMP), message
// sending (SND), and the global barrier (SYN). Cyclops has no PRS phase —
// receiving threads apply updates directly — so its PRS stays 0.
//
// Every time here is modeled, so a run's totals are bit-reproducible: phase
// times are op counts x sim::SoftwareModel rates (runtime/phase_ledger.hpp),
// wire and barrier times come from sim::CostModel. SYN's modeled time is the
// barrier (modeled_barrier_s).

#include <cstdint>
#include <vector>

#include "cyclops/common/types.hpp"
#include "cyclops/sim/counters.hpp"

namespace cyclops::metrics {

/// Modeled software time per phase, for the slowest simulated executor.
struct PhaseTimes {
  double prs_s = 0;  ///< message parsing
  double cmp_s = 0;  ///< vertex computation
  double snd_s = 0;  ///< message sending (serialize + enqueue + delivery work)
  double syn_s = 0;  ///< always 0: SYN is SuperstepStats::modeled_barrier_s

  [[nodiscard]] double total_s() const noexcept { return prs_s + cmp_s + snd_s + syn_s; }

  PhaseTimes& operator+=(const PhaseTimes& o) noexcept {
    prs_s += o.prs_s;
    cmp_s += o.cmp_s;
    snd_s += o.snd_s;
    syn_s += o.syn_s;
    return *this;
  }
};

struct SuperstepStats {
  Superstep superstep = 0;
  std::uint64_t active_vertices = 0;
  std::uint64_t computed_vertices = 0;  ///< compute() invocations
  sim::NetSnapshot net;                 ///< traffic of this superstep
  std::uint64_t redundant_messages = 0; ///< payload identical to previous superstep
  std::uint64_t converged_vertices = 0; ///< cumulative, by local error
  PhaseTimes phases;                    ///< modeled software time per phase
  double modeled_comm_s = 0;            ///< cost-model wire time
  double modeled_barrier_s = 0;         ///< cost-model barrier time (SYN)

  /// The superstep's modeled time: phases plus wire and barrier.
  [[nodiscard]] double total_time_s() const noexcept {
    return phases.total_s() + modeled_comm_s + modeled_barrier_s;
  }
};

/// Whole-run result common to every engine: the supersteps of one run()
/// call. Only ingress_s is host time.
struct RunStats {
  std::vector<SuperstepStats> supersteps;
  double ingress_s = 0;            ///< host time of layout/replica construction
  std::uint64_t peak_buffered_bytes = 0;

  [[nodiscard]] PhaseTimes phase_totals() const noexcept {
    PhaseTimes t;
    for (const auto& s : supersteps) t += s.phases;
    return t;
  }
  [[nodiscard]] sim::NetSnapshot net_totals() const noexcept {
    sim::NetSnapshot n;
    for (const auto& s : supersteps) n += s.net;
    return n;
  }
  [[nodiscard]] double modeled_comm_total_s() const noexcept {
    double t = 0;
    for (const auto& s : supersteps) t += s.modeled_comm_s + s.modeled_barrier_s;
    return t;
  }
  [[nodiscard]] double modeled_wire_s() const noexcept {
    double t = 0;
    for (const auto& s : supersteps) t += s.modeled_comm_s;
    return t;
  }
  [[nodiscard]] double modeled_barrier_s() const noexcept {
    double t = 0;
    for (const auto& s : supersteps) t += s.modeled_barrier_s;
    return t;
  }
  /// The headline "execution time" figure: modeled phase time plus modeled
  /// wire and barrier time (DESIGN.md §5 — phases, wire and barrier do not
  /// overlap, so the composition is additive and conservative).
  [[nodiscard]] double total_time_s() const noexcept {
    return phase_totals().total_s() + modeled_comm_total_s();
  }
};

}  // namespace cyclops::metrics
