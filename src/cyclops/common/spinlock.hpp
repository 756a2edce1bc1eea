#pragma once
// Tiny test-and-test-and-set spinlock with an acquisition counter, used by the
// Hama-style global in-queue so the communication micro-benchmark (Table 3)
// can report contention directly.

#include <atomic>
#include <cstdint>

#include "cyclops/verify/race.hpp"

namespace cyclops {

class SpinLock {
 public:
  void lock() noexcept {
    for (;;) {
      if (!flag_.exchange(true, std::memory_order_acquire)) break;
      while (flag_.load(std::memory_order_relaxed)) {
        // spin; on a contended lock this is where BSP receivers burn time
      }
    }
    acquisitions_.fetch_add(1, std::memory_order_relaxed);
    verify::race::lock_acquired(this);
  }

  void unlock() noexcept {
    verify::race::lock_released(this);
    flag_.store(false, std::memory_order_release);
  }

  [[nodiscard]] std::uint64_t acquisitions() const noexcept {
    return acquisitions_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> flag_{false};
  std::atomic<std::uint64_t> acquisitions_{0};
};

}  // namespace cyclops
