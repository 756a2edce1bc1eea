#pragma once
// Dense bitset with lock-free concurrent set(), used for vertex active sets.
// Local activation in Cyclops is "a lock-free operation" (§5) — this is it.
// for_each_in(begin, end, fn) walks the set bits of one index range word by
// word, so a superstep's scan of its active and dirty masters costs the
// set bits plus one load per 64 indices, not one test per index.

#include <atomic>
#include <cstdint>
#include <vector>

#include "cyclops/common/check.hpp"

namespace cyclops {

class DenseBitset {
 public:
  DenseBitset() = default;
  explicit DenseBitset(std::size_t n) { resize(n); }

  void resize(std::size_t n) {
    size_ = n;
    words_.assign((n + 63) / 64, Word{0});
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Concurrent-safe: multiple threads may set bits simultaneously.
  void set(std::size_t i) noexcept {
    CYCLOPS_DCHECK(i < size_);
    words_[i >> 6].bits.fetch_or(1ULL << (i & 63), std::memory_order_relaxed);
  }

  /// Not concurrent-safe with set() on the same word.
  void clear(std::size_t i) noexcept {
    CYCLOPS_DCHECK(i < size_);
    words_[i >> 6].bits.fetch_and(~(1ULL << (i & 63)), std::memory_order_relaxed);
  }

  [[nodiscard]] bool test(std::size_t i) const noexcept {
    CYCLOPS_DCHECK(i < size_);
    return (words_[i >> 6].bits.load(std::memory_order_relaxed) >> (i & 63)) & 1ULL;
  }

  void clear_all() noexcept {
    for (auto& w : words_) w.bits.store(0, std::memory_order_relaxed);
  }

  void set_all() noexcept {
    if (words_.empty()) return;
    for (auto& w : words_) w.bits.store(~0ULL, std::memory_order_relaxed);
    // Mask the tail so count() stays exact.
    const std::size_t tail = size_ & 63;
    if (tail != 0) {
      words_.back().bits.store((1ULL << tail) - 1, std::memory_order_relaxed);
    }
  }

  [[nodiscard]] std::size_t count() const noexcept {
    std::size_t total = 0;
    for (const auto& w : words_) {
      total += static_cast<std::size_t>(
          __builtin_popcountll(w.bits.load(std::memory_order_relaxed)));
    }
    return total;
  }

  [[nodiscard]] bool any() const noexcept {
    for (const auto& w : words_) {
      if (w.bits.load(std::memory_order_relaxed) != 0) return true;
    }
    return false;
  }

  void swap(DenseBitset& other) noexcept {
    words_.swap(other.words_);
    std::swap(size_, other.size_);
  }

  /// Invokes fn(i) for every set bit, in increasing order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for_each_in(0, size_, fn);
  }

  /// Invokes fn(i) for every set bit i in [begin, end), in increasing order,
  /// skipping zero words and masking the partial first and last words. An
  /// empty or inverted range visits nothing.
  template <typename Fn>
  void for_each_in(std::size_t begin, std::size_t end, Fn&& fn) const {
    if (begin >= end) return;
    CYCLOPS_DCHECK(end <= size_);
    const std::size_t first = begin >> 6;
    const std::size_t last = (end - 1) >> 6;
    const std::uint64_t head = ~0ULL << (begin & 63);
    const std::uint64_t tail = ~0ULL >> (63 - ((end - 1) & 63));
    for (std::size_t w = first; w <= last; ++w) {
      std::uint64_t bits = words_[w].bits.load(std::memory_order_relaxed);
      if (w == first) bits &= head;
      if (w == last) bits &= tail;
      while (bits != 0) {
        const int b = __builtin_ctzll(bits);
        fn(w * 64 + static_cast<std::size_t>(b));
        bits &= bits - 1;
      }
    }
  }

 private:
  struct Word {
    std::atomic<std::uint64_t> bits{0};
    Word() = default;
    explicit Word(std::uint64_t v) : bits(v) {}
    Word(const Word& o) : bits(o.bits.load(std::memory_order_relaxed)) {}
    Word& operator=(const Word& o) {
      bits.store(o.bits.load(std::memory_order_relaxed), std::memory_order_relaxed);
      return *this;
    }
  };
  std::vector<Word> words_;
  std::size_t size_ = 0;
};

}  // namespace cyclops
