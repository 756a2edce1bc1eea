#pragma once
// Vector-clock happens-before race analyzer for the engines' multithreaded
// compute paths (compile-time gated, like verify.hpp).
//
// The PR 4 checker enforces the *phase discipline* (who may touch which slot
// class in which phase); this layer enforces the *synchronization* claim
// underneath it: every pair of conflicting accesses to a shared cell must be
// ordered by a real happens-before edge. The tracked edges are exactly the
// ones the engines are allowed to rely on:
//
//   * ThreadPool fork/join — parallel_tasks forks one logical context per
//     task and joins them all back into the caller at the region barrier.
//   * SpinLock / Mutex acquire-release — release copies the holder's clock
//     into the lock, acquire joins it (FastTrack-style lock clocks).
//   * Fabric exchange — the global barrier ticks the driver's clock.
//
// Deliberately NOT tracked: the ThreadPool's internal mutex/condvar. Handing
// a task to a worker thread is machinery, not synchronization the engine may
// lean on — modeling it would manufacture HB edges between logical tasks and
// mask real races. This is also what makes the analyzer schedule-independent:
// logical tasks are concurrent in the model even when the schedule explorer
// (sim/sched.hpp) executes them serially in a permuted order, so a race is
// detected on its first occurrence under *any* explored schedule, and a
// report's (seed, schedule) pair replays it bit-identically.
//
// Contexts are logical tasks, not host threads. Context ids are recycled
// through a free list with a monotone per-id clock floor, so a reused id can
// never appear ordered-before state it did not really synchronize with; the
// one corner this trades away is races between a freed context and an
// *unrelated* pool's concurrent region that recycles its id — a missed race
// there, never a false report.
//
// Cells are keyed (class, worker, key): vertex slots, staging buffers, BSP
// mailboxes, the Hama in-queue, sender lanes, and service-scheduler job
// records. Reports carry both access sites in the PR 4 vocabulary (kind,
// phase, superstep, vertex) plus the (seed, schedule) of the run.
//
// Without CYCLOPS_VERIFY every entry point is an empty inline the optimizer
// deletes. With it, detection still costs nothing until race::enable(true)
// flips the runtime gate (one relaxed atomic load per hook when off).

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <sstream>
#include <string>

#include "cyclops/common/types.hpp"
#include "cyclops/verify/site.hpp"

#ifdef CYCLOPS_VERIFY
#include <atomic>
#include <unordered_map>
#include <vector>

#include "cyclops/common/sync.hpp"
#endif

namespace cyclops::verify::race {

/// The classes of shared cells the engines stamp. One (class, worker, key)
/// triple names one unit of memory the single-writer disciplines govern.
enum class CellClass : std::uint8_t {
  kSlot = 0,     ///< exposed view slot (master value, replica, GAS mirror)
  kStage = 1,    ///< master-private staging written during compute
  kMailbox = 2,  ///< BSP per-vertex mailbox
  kQueue = 3,    ///< Hama-style shared in-queue (SpinLock-guarded)
  kLane = 4,     ///< fabric sender lane (single concurrent writer per lane)
  kJob = 5,      ///< service-scheduler job record
};

[[nodiscard]] inline const char* cell_class_name(CellClass c) noexcept {
  switch (c) {
    case CellClass::kSlot: return "slot";
    case CellClass::kStage: return "stage";
    case CellClass::kMailbox: return "mailbox";
    case CellClass::kQueue: return "queue";
    case CellClass::kLane: return "lane";
    case CellClass::kJob: return "job";
  }
  return "?";
}

enum class RaceKind : std::uint8_t {
  kWriteWrite = 0,  ///< two unordered writes
  kReadWrite = 1,   ///< a write unordered after an earlier read
  kWriteRead = 2,   ///< a read unordered after an earlier write
};

[[nodiscard]] inline const char* race_kind_name(RaceKind k) noexcept {
  switch (k) {
    case RaceKind::kWriteWrite: return "write-write";
    case RaceKind::kReadWrite: return "read-write";
    case RaceKind::kWriteRead: return "write-read";
  }
  return "?";
}

/// One detected race: both access sites in the PR 4 report vocabulary, plus
/// the (seed, schedule) pair of the explorer run that produced it. Feeding
/// the same seed back through `cyclops-cli --race` (or a ScheduleExplorer
/// constructed with it) replays the identical schedule and the identical
/// report — schedules are pure functions of the seed.
struct Report {
  RaceKind kind = RaceKind::kWriteWrite;
  CellClass cell = CellClass::kSlot;
  WorkerId worker = kInvalidWorker;  ///< worker hosting the cell
  std::uint64_t key = 0;             ///< slot / vertex / lane / job id
  VertexId vertex = kInvalidVertex;  ///< global id when slot-attributable
  AccessSite current;                ///< the access that closed the race
  AccessSite previous;               ///< the unordered earlier access
  std::uint64_t seed = 0;            ///< explorer seed (0: default schedule)
  std::uint64_t schedule = 0;        ///< schedule digest at detection time

  [[nodiscard]] std::string describe() const {
    std::ostringstream os;
    os << "data race [" << race_kind_name(kind) << "] on " << cell_class_name(cell)
       << " cell (worker " << worker << ", key " << key;
    if (vertex != kInvalidVertex) os << ", vertex " << vertex;
    os << ") seed " << seed << " schedule 0x" << std::hex << schedule << std::dec;
    os << "\n  at      " << (current.loc.file ? current.loc.file : "?") << ":"
       << current.loc.line << " (phase " << phase_name(current.phase) << ", superstep "
       << current.superstep << ", worker " << current.worker << ")";
    if (previous.valid()) {
      os << "\n  against " << previous.loc.file << ":" << previous.loc.line << " (phase "
         << phase_name(previous.phase) << ", superstep " << previous.superstep
         << ", worker " << previous.worker << ")";
    }
    return os.str();
  }
};

using ReportHandler = std::function<void(const Report&)>;

inline constexpr std::uint32_t kNoCtx = 0xffffffffu;

#ifdef CYCLOPS_VERIFY

namespace detail {
/// The executing thread's current logical context (task, or lazily created
/// thread root). Bound by TaskScope on task entry, restored on exit.
inline thread_local std::uint32_t tls_ctx = kNoCtx;

[[noreturn]] inline void abort_handler(const Report& r) {
  std::fprintf(stderr, "CYCLOPS_RACE: %s\n", r.describe().c_str());
  std::fflush(nullptr);
  std::abort();
}
}  // namespace detail

class Region;
class TaskScope;
class Detector;

/// Process-global clock state: one vector clock per live logical context, one
/// clock per lock address, the current (seed, schedule) stamp. One mutex
/// guards the lot — this is a checker, not a hot path; correctness and
/// simplicity win over scalability, and the runtime gate keeps unenabled
/// builds at a single relaxed load.
class Runtime {
 public:
  static Runtime& instance() {
    static Runtime rt;
    return rt;
  }

  void enable(bool on) noexcept { enabled_.store(on, std::memory_order_release); }
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_acquire);
  }

  /// Published by the schedule explorer as it plans regions; stamped into
  /// every report so a race names the schedule that produced it.
  void note_schedule(std::uint64_t seed, std::uint64_t digest) {
    LockGuard<Mutex> lock(mu_);
    seed_ = seed;
    schedule_ = digest;
  }

 private:
  friend class Region;
  friend class TaskScope;
  friend class Detector;
  friend void lock_acquired(const void* addr);
  friend void lock_released(const void* addr);
  friend void exchange_barrier();

  struct Ctx {
    std::vector<std::uint32_t> clock;
    bool live = false;
  };

  /// Allocates a context (reusing a freed id when possible) whose clock is a
  /// copy of `parent_clock` (or zeros for a thread root) with its own
  /// component bumped strictly above every prior incarnation of the id.
  std::uint32_t alloc_ctx_locked(const std::vector<std::uint32_t>* parent_clock) {
    std::uint32_t id;
    if (!free_ids_.empty()) {
      id = free_ids_.back();
      free_ids_.pop_back();
    } else {
      id = static_cast<std::uint32_t>(ctxs_.size());
      ctxs_.emplace_back();
      floors_.push_back(0);
    }
    Ctx& c = ctxs_[id];
    c.live = true;
    if (parent_clock != nullptr) {
      c.clock = *parent_clock;
    } else {
      c.clock.clear();
    }
    if (c.clock.size() <= id) c.clock.resize(id + 1, 0);
    c.clock[id] = ++floors_[id];
    return id;
  }

  /// Joins `child` into `parent` (elementwise max) and frees the child id.
  void join_locked(std::uint32_t parent, std::uint32_t child) {
    Ctx& p = ctxs_[parent];
    Ctx& c = ctxs_[child];
    if (p.clock.size() < c.clock.size()) p.clock.resize(c.clock.size(), 0);
    for (std::size_t i = 0; i < c.clock.size(); ++i) {
      if (c.clock[i] > p.clock[i]) p.clock[i] = c.clock[i];
    }
    tick_locked(parent);
    c.live = false;
    c.clock.clear();
    c.clock.shrink_to_fit();
    free_ids_.push_back(child);
  }

  void tick_locked(std::uint32_t id) { floors_[id] = ++ctxs_[id].clock[id]; }

  /// The calling thread's context, creating its thread root on first use.
  /// Thread roots are never freed: a handful per process (driver threads,
  /// the service dispatcher), each a single clock component.
  std::uint32_t current_ctx_locked() {
    if (detail::tls_ctx == kNoCtx) detail::tls_ctx = alloc_ctx_locked(nullptr);
    return detail::tls_ctx;
  }

  void join_into_current_locked(const std::vector<std::uint32_t>& other) {
    Ctx& c = ctxs_[current_ctx_locked()];
    if (c.clock.size() < other.size()) c.clock.resize(other.size(), 0);
    for (std::size_t i = 0; i < other.size(); ++i) {
      if (other[i] > c.clock[i]) c.clock[i] = other[i];
    }
  }

  std::atomic<bool> enabled_{false};
  Mutex mu_;
  std::vector<Ctx> ctxs_;
  std::vector<std::uint32_t> floors_;     // max clock any incarnation of id reached
  std::vector<std::uint32_t> free_ids_;
  std::unordered_map<const void*, std::vector<std::uint32_t>> lock_clocks_;
  std::uint64_t seed_ = 0;
  std::uint64_t schedule_ = 0;
};

inline void enable(bool on) noexcept { Runtime::instance().enable(on); }
[[nodiscard]] inline bool enabled() noexcept { return Runtime::instance().enabled(); }
inline void note_schedule(std::uint64_t seed, std::uint64_t digest) {
  if (Runtime::instance().enabled()) Runtime::instance().note_schedule(seed, digest);
}

/// Lock-clock join on acquire: the acquirer inherits everything the last
/// releaser had seen. Instrumented locks (SpinLock, the scheduler's Mutex via
/// MutexObserver / annotated_wait) call these with their own address.
inline void lock_acquired(const void* addr) {
  Runtime& rt = Runtime::instance();
  if (!rt.enabled()) return;
  LockGuard<Mutex> lock(rt.mu_);
  const auto it = rt.lock_clocks_.find(addr);
  if (it == rt.lock_clocks_.end()) return;  // never released yet: no edge
  rt.join_into_current_locked(it->second);
}

inline void lock_released(const void* addr) {
  Runtime& rt = Runtime::instance();
  if (!rt.enabled()) return;
  LockGuard<Mutex> lock(rt.mu_);
  const std::uint32_t cur = rt.current_ctx_locked();
  rt.lock_clocks_[addr] = rt.ctxs_[cur].clock;
  rt.tick_locked(cur);
}

/// The fabric's global barrier, seen from the driver thread. Regions already
/// provide the fork/join ordering around it; the tick marks the epoch.
inline void exchange_barrier() {
  Runtime& rt = Runtime::instance();
  if (!rt.enabled()) return;
  LockGuard<Mutex> lock(rt.mu_);
  rt.tick_locked(rt.current_ctx_locked());
}

/// One ThreadPool parallel region: forks a logical context per task from the
/// caller's context, joins them all back at destruction (the pool's blocking
/// barrier). Constructed by ThreadPool::parallel_tasks on the caller thread.
class Region {
 public:
  explicit Region(std::size_t tasks) {
    Runtime& rt = Runtime::instance();
    if (!rt.enabled() || tasks == 0) return;
    active_ = true;
    LockGuard<Mutex> lock(rt.mu_);
    parent_ = rt.current_ctx_locked();
    // Copy, not reference: alloc_ctx_locked may grow ctxs_ under us.
    const std::vector<std::uint32_t> parent_clock = rt.ctxs_[parent_].clock;
    ctxs_.resize(tasks, kNoCtx);
    for (std::uint32_t& id : ctxs_) id = rt.alloc_ctx_locked(&parent_clock);
    rt.tick_locked(parent_);
  }

  ~Region() {
    if (!active_) return;
    Runtime& rt = Runtime::instance();
    LockGuard<Mutex> lock(rt.mu_);
    for (const std::uint32_t id : ctxs_) rt.join_locked(parent_, id);
  }

  Region(const Region&) = delete;
  Region& operator=(const Region&) = delete;

  [[nodiscard]] bool active() const noexcept { return active_; }
  [[nodiscard]] std::uint32_t ctx_of(std::size_t task) const noexcept {
    return active_ ? ctxs_[task] : kNoCtx;
  }

 private:
  bool active_ = false;
  std::uint32_t parent_ = kNoCtx;
  std::vector<std::uint32_t> ctxs_;
};

/// Binds the executing thread to one task's logical context for the duration
/// of the task body — on a pool worker, inline on the caller, or serially
/// under the schedule explorer; the HB model is identical in all three.
class TaskScope {
 public:
  TaskScope(const Region& region, std::size_t task) {
    if (!region.active()) return;
    active_ = true;
    prev_ = detail::tls_ctx;
    detail::tls_ctx = region.ctx_of(task);
  }
  ~TaskScope() {
    if (active_) detail::tls_ctx = prev_;
  }
  TaskScope(const TaskScope&) = delete;
  TaskScope& operator=(const TaskScope&) = delete;

 private:
  bool active_ = false;
  std::uint32_t prev_ = kNoCtx;
};

/// Per-engine (or per-scheduler) shadow memory: FastTrack-style write epoch
/// plus a read set per cell. Hooks are called from the engines' task bodies;
/// state is guarded by the Runtime mutex (clock compares need it anyway),
/// and the handler runs outside it.
class Detector {
 public:
  Detector() = default;
  Detector(const Detector&) = delete;
  Detector& operator=(const Detector&) = delete;

  void on_access(CellClass cls, WorkerId worker, std::uint64_t key, VertexId vertex,
                 bool is_write, SourceLoc loc, Phase phase, Superstep step,
                 WorkerId executing) {
    Runtime& rt = Runtime::instance();
    if (!rt.enabled()) return;
    checked_.fetch_add(1, std::memory_order_relaxed);
    Report rep;
    bool raced = false;
    {
      LockGuard<Mutex> lock(rt.mu_);
      const std::uint32_t cur = rt.current_ctx_locked();
      const std::vector<std::uint32_t>& cur_clock = rt.ctxs_[cur].clock;
      const auto ordered = [&](std::uint32_t ctx, std::uint32_t at) noexcept {
        return ctx == cur || (ctx < cur_clock.size() && cur_clock[ctx] >= at);
      };
      Cell& cell = cells_[cell_key(cls, worker, key)];
      const AccessSite site{loc, phase, step, executing};
      if (is_write) {
        if (cell.w_ctx != kNoCtx && !ordered(cell.w_ctx, cell.w_clock)) {
          rep = make(RaceKind::kWriteWrite, cls, worker, key, vertex, cell.w_site,
                     site, rt);
          raced = true;
        }
        if (!raced) {
          for (const ReadEntry& r : cell.reads) {
            if (!ordered(r.ctx, r.clock)) {
              rep = make(RaceKind::kReadWrite, cls, worker, key, vertex, r.site,
                         site, rt);
              raced = true;
              break;
            }
          }
        }
        cell.w_ctx = cur;
        cell.w_clock = cur_clock[cur];
        cell.w_site = site;
        cell.reads.clear();
      } else {
        if (cell.w_ctx != kNoCtx && !ordered(cell.w_ctx, cell.w_clock)) {
          rep = make(RaceKind::kWriteRead, cls, worker, key, vertex, cell.w_site,
                     site, rt);
          raced = true;
        }
        bool updated = false;
        for (ReadEntry& r : cell.reads) {
          if (r.ctx == cur) {
            r.clock = cur_clock[cur];
            r.site = site;
            updated = true;
            break;
          }
        }
        if (!updated) cell.reads.push_back(ReadEntry{cur, cur_clock[cur], site});
      }
    }
    if (raced) report(rep);
  }

  /// Installs a race sink (tests and the CLI collect; default aborts).
  void set_handler(ReportHandler h) {
    LockGuard<Mutex> lock(handler_mu_);
    handler_ = std::move(h);
  }

  /// Drops all shadow cells (engine rebuild/restore re-stamps from scratch).
  void reset() {
    LockGuard<Mutex> lock(Runtime::instance().mu_);
    cells_.clear();
  }

  [[nodiscard]] std::uint64_t accesses_checked() const noexcept {
    return checked_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t races() const noexcept {
    return races_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::string summary() const {
    std::ostringstream os;
    os << "[race] " << accesses_checked() << " accesses checked, " << races()
       << " races";
    return os.str();
  }

 private:
  struct ReadEntry {
    std::uint32_t ctx = kNoCtx;
    std::uint32_t clock = 0;
    AccessSite site;
  };
  struct Cell {
    std::uint32_t w_ctx = kNoCtx;
    std::uint32_t w_clock = 0;
    AccessSite w_site;
    std::vector<ReadEntry> reads;
  };

  [[nodiscard]] static std::uint64_t cell_key(CellClass cls, WorkerId worker,
                                              std::uint64_t key) noexcept {
    return (static_cast<std::uint64_t>(cls) << 58) |
           (static_cast<std::uint64_t>(worker) << 32) | (key & 0xffffffffULL);
  }

  Report make(RaceKind kind, CellClass cls, WorkerId worker, std::uint64_t key,
              VertexId vertex, AccessSite previous, AccessSite current,
              const Runtime& rt) {
    Report r;
    r.kind = kind;
    r.cell = cls;
    r.worker = worker;
    r.key = key;
    r.vertex = vertex;
    r.previous = previous;
    r.current = current;
    r.seed = rt.seed_;
    r.schedule = rt.schedule_;
    return r;
  }

  void report(const Report& r) {
    races_.fetch_add(1, std::memory_order_relaxed);
    ReportHandler h;
    {
      LockGuard<Mutex> lock(handler_mu_);
      h = handler_;
    }
    if (h) {
      h(r);
    } else {
      detail::abort_handler(r);
    }
  }

  std::unordered_map<std::uint64_t, Cell> cells_;
  std::atomic<std::uint64_t> checked_{0};
  std::atomic<std::uint64_t> races_{0};
  Mutex handler_mu_;
  ReportHandler handler_;
};

#else  // !CYCLOPS_VERIFY — every entry point is an empty inline no-op.

inline void enable(bool) noexcept {}
[[nodiscard]] inline bool enabled() noexcept { return false; }
inline void note_schedule(std::uint64_t, std::uint64_t) noexcept {}
inline void lock_acquired(const void*) noexcept {}
inline void lock_released(const void*) noexcept {}
inline void exchange_barrier() noexcept {}

class Region {
 public:
  explicit Region(std::size_t) noexcept {}
  Region(const Region&) = delete;
  Region& operator=(const Region&) = delete;
  [[nodiscard]] bool active() const noexcept { return false; }
  [[nodiscard]] std::uint32_t ctx_of(std::size_t) const noexcept { return kNoCtx; }
};

class TaskScope {
 public:
  TaskScope(const Region&, std::size_t) noexcept {}
  TaskScope(const TaskScope&) = delete;
  TaskScope& operator=(const TaskScope&) = delete;
};

class Detector {
 public:
  Detector() = default;
  Detector(const Detector&) = delete;
  Detector& operator=(const Detector&) = delete;
  void on_access(CellClass, WorkerId, std::uint64_t, VertexId, bool, SourceLoc,
                 Phase, Superstep, WorkerId) noexcept {}
  void set_handler(ReportHandler) noexcept {}
  void reset() noexcept {}
  [[nodiscard]] std::uint64_t accesses_checked() const noexcept { return 0; }
  [[nodiscard]] std::uint64_t races() const noexcept { return 0; }
  [[nodiscard]] std::string summary() const {
    return "[race] compiled out (rebuild with -DCYCLOPS_VERIFY=ON)";
  }
};

#endif  // CYCLOPS_VERIFY

/// RAII annotation for a held Mutex: declare right after taking the lock so
/// destruction (the release edge) runs just before the lock is dropped.
class MutexObserver {
 public:
  explicit MutexObserver(const void* addr) noexcept : addr_(addr) { lock_acquired(addr_); }
  ~MutexObserver() { lock_released(addr_); }
  MutexObserver(const MutexObserver&) = delete;
  MutexObserver& operator=(const MutexObserver&) = delete;

 private:
  const void* addr_;
};

/// Condvar wait with correct lock-clock annotations. cv.wait(lk, pred)
/// silently unlocks and relocks the mutex, which a plain MutexObserver pair
/// cannot see — this spells the loop out so every real release/acquire of
/// the mutex has its matching annotation. A plain cv.wait in the stub build.
template <typename CV, typename Lock, typename Pred>
void annotated_wait(CV& cv, Lock& lk, const void* mutex_addr, Pred pred) {
  while (!pred()) {
    lock_released(mutex_addr);
    cv.wait(lk);
    lock_acquired(mutex_addr);
  }
}

}  // namespace cyclops::verify::race
