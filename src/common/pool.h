// The run harnesses' host-side tools (chaos campaigns, the interleaving
// explorer): one worker pool over an index space and one wall clock.
#ifndef SRC_COMMON_POOL_H_
#define SRC_COMMON_POOL_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <thread>
#include <vector>

namespace autonet {

// `jobs` when positive, else the hardware concurrency; at least 1.
inline int ResolveJobs(int jobs) {
  if (jobs <= 0) {
    jobs = static_cast<int>(std::thread::hardware_concurrency());
  }
  return std::max(1, jobs);
}

// Calls fn(i, worker) for every i in [0, n) on min(workers, n) threads that
// take indices from a shared counter.  `worker` is in [0, min(workers, n)),
// so callers keep per-worker state without locks.
template <typename Fn>
void ForEachIndex(std::size_t n, int workers, Fn fn) {
  std::size_t threads =
      std::min(n, static_cast<std::size_t>(std::max(1, workers)));
  std::atomic<std::size_t> next{0};
  auto work = [&](int w) {
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      fn(i, w);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t w = 0; w < threads; ++w) {
    pool.emplace_back(work, static_cast<int>(w));
  }
  for (std::thread& t : pool) {
    t.join();
  }
}

inline double WallMsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace autonet

#endif  // SRC_COMMON_POOL_H_
