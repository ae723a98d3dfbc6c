#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

namespace pramsim::util {

namespace {
std::atomic<std::size_t> g_workers_override{0};
}  // namespace

void set_parallel_workers_override(std::size_t workers) {
  g_workers_override.store(workers, std::memory_order_relaxed);
}

std::size_t parallel_workers(std::size_t n) {
  const std::size_t forced = g_workers_override.load(std::memory_order_relaxed);
  if (forced != 0) {
    return std::clamp<std::size_t>(forced, 1, std::max<std::size_t>(n, 1));
  }
  const std::size_t hw = std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
  // Below ~4 items per worker the thread spawn cost dominates.
  return std::clamp<std::size_t>(n / 4, 1, hw);
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn) {
  if (begin >= end) {
    return;
  }
  const std::size_t n = end - begin;
  const std::size_t workers = parallel_workers(n);
  if (workers == 1) {
    serial_for(begin, end, fn);
    return;
  }
  std::vector<std::thread> threads;
  threads.reserve(workers);
  const std::size_t chunk = (n + workers - 1) / workers;
  for (std::size_t w = 0; w < workers; ++w) {
    const std::size_t lo = begin + w * chunk;
    const std::size_t hi = std::min(end, lo + chunk);
    if (lo >= hi) {
      break;
    }
    threads.emplace_back([lo, hi, &fn] {
      for (std::size_t i = lo; i < hi; ++i) {
        fn(i);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
}

void serial_for(std::size_t begin, std::size_t end,
                const std::function<void(std::size_t)>& fn) {
  for (std::size_t i = begin; i < end; ++i) {
    fn(i);
  }
}

}  // namespace pramsim::util
