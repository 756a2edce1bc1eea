#pragma once
// Fixed-size thread pool with a blocking run-to-completion parallel_for.
// Engines use one pool per run; phases submit chunked index ranges. The pool
// is deliberately simple (no work stealing) so execution stays deterministic
// when chunk assignment is static.
//
// Two verification seams thread through here:
//   * Every parallel section forks a verify::race::Region — one logical
//     happens-before context per task, joined back at the blocking barrier —
//     so the race analyzer sees the pool's fork/join edges regardless of
//     which host thread runs which task. Compiled out without CYCLOPS_VERIFY.
//   * A TaskOrderHook (sim::ScheduleExplorer) can take over scheduling: the
//     pool then runs each region serially in the hook's permuted order, which
//     makes any explored interleaving bit-identically replayable from the
//     hook's seed.

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "cyclops/verify/race.hpp"

namespace cyclops {

/// Deterministic scheduling hook: decides the execution order of one parallel
/// region's tasks and the chunking of parallel_for. Implemented by
/// sim::ScheduleExplorer; a pool with a hook installed executes regions
/// serially on the calling thread in the planned order (that *is* the
/// explored interleaving — serial execution is what makes replay exact).
class TaskOrderHook {
 public:
  virtual ~TaskOrderHook() = default;

  /// Fills `order` with a permutation of [0, tasks): the execution order for
  /// this region. Called once per parallel region, on the region's caller.
  virtual void plan_region(std::size_t tasks, std::vector<std::size_t>& order) = 0;

  /// Chunk count for a parallel_for over n items (`default_chunks` is what
  /// the pool would use on its own). Lets a seed vary chunk *assignment* as
  /// well as order. Return default_chunks to leave the split alone.
  virtual std::size_t plan_chunks(std::size_t n, std::size_t threads,
                                  std::size_t default_chunks) = 0;
};

class ThreadPool {
 public:
  /// Creates `threads` workers. threads == 0 means hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  ~ThreadPool();

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Installs (or clears, with nullptr) the scheduling hook. Not owned. Must
  /// not be called while a parallel section is running.
  void set_task_order(TaskOrderHook* hook) noexcept { order_hook_ = hook; }

  /// Runs fn(chunk_begin, chunk_end) over [0, n) split into static chunks,
  /// one chunk stream per worker; blocks until every chunk is done. Runs
  /// inline when the pool has one thread (keeps single-core hosts cheap).
  void parallel_for(std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn);

  /// Runs fn(worker_index) once on each of `tasks` logical tasks in parallel.
  void parallel_tasks(std::size_t tasks, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  struct Job {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t tasks = 0;
    const verify::race::Region* region = nullptr;
  };

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  Job job_;
  std::size_t next_task_ = 0;
  std::size_t pending_ = 0;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
  TaskOrderHook* order_hook_ = nullptr;
  std::vector<std::size_t> order_;  // scratch for hooked regions
};

}  // namespace cyclops
