// Host-side parallel sweep helper.
//
// Experiment harnesses run many independent trials (Monte-Carlo map
// verification, per-seed step simulations). parallel_for partitions
// [begin, end) into contiguous blocks, one per worker thread; the partition
// depends only on (range, worker count), and callers derive per-index RNG
// streams from the index, so results are deterministic regardless of
// scheduling. The simulated machines themselves are single-threaded and
// deterministic by construction.
#pragma once

#include <cstddef>
#include <functional>

namespace pramsim::util {

/// Number of workers parallel_for will use for a range of `n` items.
[[nodiscard]] std::size_t parallel_workers(std::size_t n);

/// Force parallel_for to use exactly min(workers, n) workers (0 restores
/// the automatic policy). The partition depends only on (range, worker
/// count), so A/B determinism tests pin 1 vs hardware_concurrency and
/// assert bit-identical results. Not thread-safe against concurrent
/// parallel_for calls; set it from the orchestrating thread only.
void set_parallel_workers_override(std::size_t workers);

/// Invoke fn(i) for every i in [begin, end), possibly from multiple
/// threads. fn must not throw; indices are disjoint across workers.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn);

/// Force-serial variant for A/B determinism tests.
void serial_for(std::size_t begin, std::size_t end,
                const std::function<void(std::size_t)>& fn);

/// Empty placeholder; perfbench's `ServeContext ctx({}, &executor)` is
/// its only user, and it goes when ROADMAP item 4 deletes SpanMemory and
/// the replay.
class Executor {};

}  // namespace pramsim::util
