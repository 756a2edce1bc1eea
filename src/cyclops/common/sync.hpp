#pragma once
// The repo's only doorway to the std threading primitives. Everything outside
// common/ must use these aliases instead of naming std::thread / std::mutex /
// std::condition_variable directly (enforced by cyclops-analyze):
// keeping every raw primitive behind one header makes the host-concurrency
// surface auditable at a glance — which matters in a codebase whose whole
// point is that simulated workers share memory in phase-disciplined ways.

#include <condition_variable>
#include <mutex>
#include <thread>

namespace cyclops {

using Mutex = std::mutex;
using CondVar = std::condition_variable;
using Thread = std::thread;

template <typename M>
using LockGuard = std::lock_guard<M>;
template <typename M>
using UniqueLock = std::unique_lock<M>;

}  // namespace cyclops
