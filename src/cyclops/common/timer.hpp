#pragma once
// Host wall-clock timer for ingress, store builds and benchmarks. Engine
// phase times are modeled, not timed (runtime/phase_ledger.hpp).

#include <chrono>

namespace cyclops {

class Timer {
 public:
  Timer() noexcept : start_(Clock::now()) {}

  /// Seconds elapsed since construction.
  [[nodiscard]] double elapsed_s() const noexcept {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace cyclops
