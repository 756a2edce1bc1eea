#include "cyclops/common/exec.hpp"

#include <algorithm>
#include <vector>

#include "cyclops/common/check.hpp"
#include "cyclops/common/timer.hpp"

namespace cyclops {

ChunkRange chunk_range(std::size_t n, std::size_t chunks, std::size_t index) {
  CYCLOPS_CHECK(chunks > 0 && index < chunks);
  const std::size_t base = n / chunks;
  const std::size_t extra = n % chunks;
  const std::size_t begin = index * base + std::min(index, extra);
  const std::size_t size = base + (index < extra ? 1 : 0);
  return ChunkRange{begin, begin + size};
}

double timed_executors(ThreadPool& pool, std::size_t executors,
                       const std::function<void(std::size_t)>& fn) {
  if (executors == 0) return 0.0;
  std::vector<double> times(executors, 0.0);
  std::function<void(std::size_t)> task = [&](std::size_t i) {
    Timer t;
    fn(i);
    times[i] = t.elapsed_s();
  };
  pool.parallel_tasks(executors, task);
  return *std::max_element(times.begin(), times.end());
}

}  // namespace cyclops
