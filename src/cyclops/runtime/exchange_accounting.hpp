#pragma once
// Centralized exchange-side accounting for the engine runtime layer. Every
// engine used to duplicate these as private members (peak_buffered_,
// churn_bytes_, total_sync_messages_, ...); they now live in one struct so
// memory reports and RunStats draw from the same counters regardless of
// execution model.
//
// Churn and message counters are atomics because some engines bump them from
// parallel host tasks (e.g. the BSP parse phase accounts mailbox churn per
// worker task). The peak-buffered high-water mark is only updated from the
// single-threaded exchange point, so it stays a plain integer.

#include <algorithm>
#include <atomic>
#include <cstdint>

#include "cyclops/sim/counters.hpp"
#include "cyclops/sim/fabric.hpp"

namespace cyclops::runtime {

class ExchangeAccounting {
 public:
  /// Arms bounded-message-buffer accounting for out-of-core stores: any
  /// exchange buffering above `budget_bytes` is counted as spilled bytes.
  void arm_spill(std::uint64_t budget_bytes) noexcept { spill_budget_bytes_ = budget_bytes; }

  /// Folds one barrier exchange into the peak-buffered high-water mark
  /// (Table 2's "max capacity" analog) and, when a spill budget is armed,
  /// into the spill totals.
  void note_exchange(const sim::ExchangeStats& x) noexcept {
    peak_buffered_bytes_ = std::max(peak_buffered_bytes_, x.peak_buffered_bytes);
    if (spill_budget_bytes_ > 0 && x.peak_buffered_bytes > spill_budget_bytes_) {
      spill_bytes_ += x.peak_buffered_bytes - spill_budget_bytes_;
    }
  }

  /// Folds an exchange's net traffic into the churn/message totals — for
  /// engines whose transient allocation *is* the wire traffic (Cyclops' sync
  /// messages, GAS's master/mirror pattern).
  void note_net(const sim::NetSnapshot& net) noexcept {
    add_churn_bytes(net.total_bytes());
    add_messages(net.total_messages());
  }

  /// Transient allocation not visible to the fabric (e.g. BSP's per-vertex
  /// mailbox materialization). Safe to call from parallel tasks.
  void add_churn_bytes(std::uint64_t bytes) noexcept {
    churn_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }
  void add_messages(std::uint64_t n) noexcept {
    messages_.fetch_add(n, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t peak_buffered_bytes() const noexcept {
    return peak_buffered_bytes_;
  }
  [[nodiscard]] std::uint64_t churn_bytes() const noexcept {
    return churn_bytes_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t messages() const noexcept {
    return messages_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t spill_budget_bytes() const noexcept {
    return spill_budget_bytes_;
  }
  /// Cumulative bytes buffered above the armed budget, summed per exchange.
  [[nodiscard]] std::uint64_t spill_bytes() const noexcept { return spill_bytes_; }

 private:
  std::uint64_t peak_buffered_bytes_ = 0;
  std::uint64_t spill_budget_bytes_ = 0;
  std::uint64_t spill_bytes_ = 0;
  std::atomic<std::uint64_t> churn_bytes_{0};
  std::atomic<std::uint64_t> messages_{0};
};

}  // namespace cyclops::runtime
