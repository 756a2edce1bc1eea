#include "cyclops/service/scheduler.hpp"

#include <algorithm>
#include <exception>
#include <utility>

#include "cyclops/common/check.hpp"
#include "cyclops/service/runner.hpp"

namespace cyclops::service {

namespace {
constexpr std::size_t kNpos = static_cast<std::size_t>(-1);
}

JobScheduler::JobScheduler(ThreadPool& pool, SchedulerConfig cfg)
    : pool_(pool),
      cfg_(cfg),
      epoch_(std::chrono::steady_clock::now()),
      paused_(cfg.start_paused) {
  // A 1-thread ThreadPool has no worker threads (it runs inline), so the
  // usable slot count is capped by the pool's real threads, floor 1 — the
  // inline slot then lives on the dispatcher thread.
  const std::size_t pool_threads = std::max<std::size_t>(1, pool_.size());
  slots_ = std::clamp<std::size_t>(cfg_.workers, 1, pool_threads);
  dispatcher_ = Thread([this] {
    pool_.parallel_tasks(slots_, [this](std::size_t) { worker_loop(); });
  });
}

JobScheduler::~JobScheduler() { shutdown(); }

Submission JobScheduler::submit(JobSpec spec, SnapshotRef snap) {
  CYCLOPS_CHECK(snap != nullptr);
  Submission out;
  const std::string invalid =
      algo::unsupported(spec.algo, spec.engine, snap->store(), spec.params);
  LockGuard<Mutex> lock(mutex_);
  verify::race::MutexObserver mo(&mutex_);
  if (draining_) {
    out.reason = "scheduler shutting down";
    ++counters_.rejected;
    return out;
  }
  if (!invalid.empty()) {
    out.reason = invalid;
    ++counters_.rejected;
    return out;
  }
  if (queue_.size() >= cfg_.max_queue) {
    out.reason = "queue full (" + std::to_string(queue_.size()) + " jobs queued, max " +
                 std::to_string(cfg_.max_queue) + ")";
    ++counters_.rejected;
    return out;
  }
  auto job = std::make_shared<Job>();
  job->id = next_id_++;
  job->spec = std::move(spec);
  job->snap = std::move(snap);
  job->submitted = std::chrono::steady_clock::now();
  job->stats.job_id = job->id;
  job->stats.tenant = job->spec.tenant;
  job->stats.algo = algo::token(job->spec.algo);
  job->stats.engine = algo::token(job->spec.engine);
  job->stats.epoch = job->snap->epoch();
  job->stats.priority = job->spec.priority;
  stamp_job_locked(job->id, /*is_write=*/true, CYCLOPS_VLOC);
  queue_.push_back(job);
  jobs_.emplace(job->id, job);
  order_.push_back(job);
  ++counters_.accepted;
  out.accepted = true;
  out.id = job->id;
  cv_work_.notify_one();
  return out;
}

std::size_t JobScheduler::pick_locked() const {
  std::size_t best = kNpos;
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    const JobPtr& job = queue_[i];
    const auto it = tenant_running_.find(job->spec.tenant);
    if (it != tenant_running_.end() && it->second >= cfg_.per_tenant_running) continue;
    if (best == kNpos || job->spec.priority > queue_[best]->spec.priority) best = i;
    // FIFO within a priority: queue_ is in submission order, so the first
    // strictly-greater hit wins and later equal priorities never replace it.
  }
  return best;
}

void JobScheduler::worker_loop() {
  UniqueLock<Mutex> lock(mutex_);
  // Every real acquire/release of mutex_ inside this loop carries a matching
  // lock-clock annotation — including the ones hidden inside the condvar
  // waits — so the kJob cell stamps below are ordered exactly when the lock
  // orders them and never otherwise.
  verify::race::lock_acquired(&mutex_);
  for (;;) {
    verify::race::annotated_wait(cv_work_, lock, &mutex_, [&] {
      if (draining_ && queue_.empty()) return true;
      return !paused_ && pick_locked() != kNpos;
    });
    if (queue_.empty()) {
      if (draining_) {
        verify::race::lock_released(&mutex_);
        return;
      }
      continue;  // woken for a job another worker already claimed
    }
    const std::size_t idx = pick_locked();
    if (idx == kNpos) continue;
    JobPtr job = queue_[idx];
    queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(idx));
    stamp_job_locked(job->id, /*is_write=*/true, CYCLOPS_VLOC);
    job->state = JobState::kRunning;
    job->stats.queue_wait_s = std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - job->submitted)
                                  .count();
    job->stats.started_s = now_s();
    ++tenant_running_[job->spec.tenant];
    ++running_;
    verify::race::lock_released(&mutex_);
    lock.unlock();

    std::shared_ptr<JobResult> result;
    std::string error;
    const auto run_start = std::chrono::steady_clock::now();
    try {
      result = std::make_shared<JobResult>(run_on_snapshot(*job->snap, job->spec));
    } catch (const std::exception& e) {
      error = e.what();
    }
    const double modeled = result ? result->run.modeled_comm_total_s() : 0.0;
    if (cfg_.realize_modeled_factor > 0 && modeled > 0) {
      // The honest part of serving throughput: modeled wire/barrier time is
      // wall time on a real cluster, and it overlaps across concurrent jobs.
      std::this_thread::sleep_for(
          std::chrono::duration<double>(modeled * cfg_.realize_modeled_factor));
    }
    const double run_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - run_start)
            .count();

    lock.lock();
    verify::race::lock_acquired(&mutex_);
    stamp_job_locked(job->id, /*is_write=*/true, CYCLOPS_VLOC);
    job->stats.run_s = run_s;
    job->stats.finished_s = now_s();
    job->stats.modeled_comm_s = modeled;
    if (result) {
      job->stats.supersteps = result->run.supersteps.size();
      job->result = std::move(result);
      job->state = JobState::kDone;
      job->stats.outcome = "ok";
    } else {
      job->state = JobState::kFailed;
      job->stats.outcome = "failed: " + error;
      ++counters_.failed;
    }
    job->snap.reset();  // release the epoch pin as soon as the job is off it
    ++counters_.completed;
    auto it = tenant_running_.find(job->spec.tenant);
    if (--it->second == 0) tenant_running_.erase(it);
    --running_;
    cv_done_.notify_all();
    cv_work_.notify_all();  // a tenant slot freed; re-evaluate the queue
  }
}

bool JobScheduler::cancel(std::uint64_t id) {
  LockGuard<Mutex> lock(mutex_);
  verify::race::MutexObserver mo(&mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end() || it->second->state != JobState::kQueued) return false;
  JobPtr job = it->second;
  stamp_job_locked(job->id, /*is_write=*/true, CYCLOPS_VLOC);
  queue_.erase(std::find(queue_.begin(), queue_.end(), job));
  job->state = JobState::kCancelled;
  job->stats.outcome = "cancelled";
  job->stats.queue_wait_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - job->submitted)
          .count();
  job->stats.finished_s = now_s();
  job->snap.reset();
  ++counters_.cancelled;
  cv_done_.notify_all();
  return true;
}

void JobScheduler::resume() {
  LockGuard<Mutex> lock(mutex_);
  verify::race::MutexObserver mo(&mutex_);
  paused_ = false;
  cv_work_.notify_all();
}

void JobScheduler::wait(std::uint64_t id) {
  UniqueLock<Mutex> lock(mutex_);
  verify::race::MutexObserver mo(&mutex_);
  const auto it = jobs_.find(id);
  CYCLOPS_CHECK(it != jobs_.end());
  JobPtr job = it->second;
  verify::race::annotated_wait(cv_done_, lock, &mutex_, [&] { return terminal(job->state); });
  stamp_job_locked(job->id, /*is_write=*/false, CYCLOPS_VLOC);
}

void JobScheduler::wait_all() {
  UniqueLock<Mutex> lock(mutex_);
  verify::race::MutexObserver mo(&mutex_);
  verify::race::annotated_wait(cv_done_, lock, &mutex_, [&] {
    return running_ == 0 && (paused_ || queue_.empty());
  });
}

void JobScheduler::shutdown() {
  {
    LockGuard<Mutex> lock(mutex_);
    verify::race::MutexObserver mo(&mutex_);
    draining_ = true;
    paused_ = false;  // a paused scheduler must still drain
    cv_work_.notify_all();
  }
  if (dispatcher_.joinable()) dispatcher_.join();
  cv_done_.notify_all();
}

metrics::JobStats JobScheduler::stats_for(std::uint64_t id) const {
  LockGuard<Mutex> lock(mutex_);
  verify::race::MutexObserver mo(&mutex_);
  const auto it = jobs_.find(id);
  CYCLOPS_CHECK(it != jobs_.end());
  stamp_job_locked(id, /*is_write=*/false, CYCLOPS_VLOC);
  return it->second->stats;
}

std::vector<metrics::JobStats> JobScheduler::all_stats() const {
  LockGuard<Mutex> lock(mutex_);
  verify::race::MutexObserver mo(&mutex_);
  std::vector<metrics::JobStats> out;
  out.reserve(order_.size());
  for (const JobPtr& job : order_) {
    stamp_job_locked(job->id, /*is_write=*/false, CYCLOPS_VLOC);
    out.push_back(job->stats);
  }
  return out;
}

std::shared_ptr<const JobResult> JobScheduler::result_for(std::uint64_t id) const {
  LockGuard<Mutex> lock(mutex_);
  verify::race::MutexObserver mo(&mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return nullptr;
  stamp_job_locked(id, /*is_write=*/false, CYCLOPS_VLOC);
  return it->second->result;
}

SchedulerCounters JobScheduler::counters() const {
  LockGuard<Mutex> lock(mutex_);
  verify::race::MutexObserver mo(&mutex_);
  return counters_;
}

}  // namespace cyclops::service
