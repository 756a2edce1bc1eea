#pragma once
// The modeled phase clock of §3.5 (PRS/CMP/SND, Fig. 10(1)), kept in one
// place for every engine. An engine counts the work each simulated executor
// (worker, or compute/receiver thread within a worker) performs in a
// superstep and charges it here in µs — counts × sim::SoftwareModel rates.
// The engine shell turns the charges into the superstep's PhaseTimes: each
// stage takes its slowest executor, i.e. perfectly-overlapped parallel time,
// which a host with fewer cores than simulated executors cannot show.
//
// SYN is not charged here. Its modeled cost is the fabric's barrier time
// (SuperstepStats::modeled_barrier_s), so PhaseTimes::syn_s stays 0.

#include <algorithm>
#include <array>
#include <cstddef>
#include <vector>

#include "cyclops/metrics/superstep_stats.hpp"

namespace cyclops::runtime {

class PhaseLedger {
 public:
  /// Sized once, for the engine's lifetime: one slot per simulated executor
  /// in every stage.
  explicit PhaseLedger(std::size_t executors) {
    for (auto& stage : us_) stage.assign(executors, 0.0);
  }

  // Each adds `us` of modeled work to one executor's stage. A host task
  // charges only its own executor, so parallel charges never share a slot.
  void charge_parse(std::size_t executor, double us) noexcept { us_[kParse][executor] += us; }
  void charge_compute(std::size_t executor, double us) noexcept { us_[kCompute][executor] += us; }
  void charge_send(std::size_t executor, double us) noexcept { us_[kSend][executor] += us; }
  void charge_receive(std::size_t executor, double us) noexcept { us_[kReceive][executor] += us; }

  /// Zeroes every slot; the shell calls it before each superstep.
  void clear() noexcept {
    for (auto& stage : us_) std::fill(stage.begin(), stage.end(), 0.0);
  }

  /// The superstep's phase times: each stage is the max over executors, SND
  /// is the slowest sender plus the slowest receiver, seconds taken last.
  [[nodiscard]] metrics::PhaseTimes phases() const noexcept {
    metrics::PhaseTimes t;
    t.prs_s = max_us(kParse) * 1e-6;
    t.cmp_s = max_us(kCompute) * 1e-6;
    t.snd_s = (max_us(kSend) + max_us(kReceive)) * 1e-6;
    return t;
  }

 private:
  enum Stage : std::size_t { kParse, kCompute, kSend, kReceive, kStages };

  [[nodiscard]] double max_us(Stage stage) const noexcept {
    double m = 0;
    for (const double us : us_[stage]) m = std::max(m, us);
    return m;
  }

  std::array<std::vector<double>, kStages> us_;
};

}  // namespace cyclops::runtime
