#pragma once
// Simulated-executor helpers. Engines split a worker's masters (or packages)
// across its simulated compute/receiver threads with chunk_range; their phase
// times are modeled per executor (runtime/phase_ledger.hpp), not timed.
// timed_executors measures host time per executor and keeps the slowest.

#include <cstddef>
#include <functional>

#include "cyclops/common/thread_pool.hpp"

namespace cyclops {

/// Runs fn(executor_index) once per executor (possibly really in parallel on
/// the pool) and returns the maximum per-executor wall time in seconds.
double timed_executors(ThreadPool& pool, std::size_t executors,
                       const std::function<void(std::size_t)>& fn);

struct ChunkRange {
  std::size_t begin = 0;
  std::size_t end = 0;
};
/// Splits [0, n) into `chunks` contiguous, near-equal ranges; returns the
/// `index`-th.
[[nodiscard]] ChunkRange chunk_range(std::size_t n, std::size_t chunks, std::size_t index);

}  // namespace cyclops
