// Synthetic access-trace generators.
//
// The paper's guarantees are per-step and worst-case over all request
// patterns ("an arbitrary P-RAM step"). The scheme benches therefore
// measure over several stress families and report the max/mean:
//
//  * kPermutation  - each processor accesses a distinct uniform variable
//  * kUniform      - i.i.d. uniform variables (concurrent accesses occur)
//  * kHotspot      - a fraction of processors hammer a small hot set
//  * kStride       - proc i accesses (offset + i*stride) mod m
//  * kBitReversal  - proc i accesses bit-reverse(i) (classic FFT pattern)
//  * kBroadcast    - every processor reads variable 0
//  * kZipfian      - i.i.d. Zipf(s) ranks over [0, m) (skewed head traffic)
//  * kWorkingSet   - a hot window that relocates every working_set_period
//                    steps (temporal locality with phase changes)
//
// The Zipf sampler is a bounded-Pareto inverse-CDF transform: one
// uniform draw, no rejection loop, no std::discrete_distribution — so a
// batch consumes a fixed number of RNG draws and stays deterministic
// under the repo's seed-stability rules.
//
// Map-adversarial batches (built from a concrete memory map to maximize
// module congestion) live in memmap/expansion.hpp since they need the map.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pram/types.hpp"
#include "util/rng.hpp"

namespace pramsim::pram {

enum class TraceFamily : std::uint8_t {
  kPermutation,
  kUniform,
  kHotspot,
  kStride,
  kBitReversal,
  kBroadcast,
  kZipfian,
  kWorkingSet,
};

/// Number of TraceFamily enumerators. The registry round-trip test walks
/// [0, kTraceFamilyCount) and asserts every enumerator has a to_string
/// name and appears in all_trace_families() — bump this when adding one.
inline constexpr std::size_t kTraceFamilyCount = 8;

[[nodiscard]] std::string to_string(TraceFamily family);

/// All families, in a stable order (for sweeps).
[[nodiscard]] const std::vector<TraceFamily>& all_trace_families();

/// Families guaranteed to produce distinct variables per batch (EREW-safe).
[[nodiscard]] const std::vector<TraceFamily>& exclusive_trace_families();

struct TraceParams {
  /// Probability that an access is a write (vs read).
  double write_fraction = 0.5;
  /// kHotspot: probability an access goes to the hot set.
  double hotspot_fraction = 0.5;
  /// kHotspot: size of the hot set (variables 0..hotset_size-1).
  std::uint64_t hotset_size = 1;
  /// kStride: stride between consecutive processors' variables.
  std::uint64_t stride = 1;
  /// kStride: starting offset.
  std::uint64_t offset = 0;
  /// kZipfian: skew exponent s (> 0). Small values approach uniform;
  /// s around 1 concentrates most traffic on a small head of [0, m).
  double zipf_exponent = 1.1;
  /// kWorkingSet: size of the hot window (clamped to [1, m]).
  std::uint64_t working_set_size = 64;
  /// kWorkingSet: steps between window relocations (clamped to >= 1).
  std::uint64_t working_set_period = 16;
  /// kWorkingSet: probability an access lands in the current window.
  double working_set_fraction = 0.9;
  /// kWorkingSet: the step index, used to select the current window.
  /// make_trace sets this per step; single make_batch callers may leave 0.
  std::uint64_t working_set_phase = 0;
};

/// One P-RAM step's worth of accesses (one per processor).
/// Requires m >= n for the distinct-variable families
/// (kPermutation/kBitReversal additionally require m >= next_pow2(n) for
/// bit reversal to stay in range).
[[nodiscard]] AccessBatch make_batch(TraceFamily family, std::uint32_t n,
                                     std::uint64_t m, util::Rng& rng,
                                     const TraceParams& params = {});

/// A multi-step trace.
[[nodiscard]] std::vector<AccessBatch> make_trace(
    TraceFamily family, std::uint32_t n, std::uint64_t m, std::size_t steps,
    util::Rng& rng, const TraceParams& params = {});

/// Step `step` (0-based) of make_trace: called for steps 0, 1, 2, ...
/// with one `rng`, it yields that trace's batches one at a time, so a
/// caller serving them in order never holds the whole trace.
[[nodiscard]] AccessBatch make_trace_step(TraceFamily family, std::uint32_t n,
                                          std::uint64_t m, std::size_t step,
                                          util::Rng& rng,
                                          const TraceParams& params = {});

}  // namespace pramsim::pram
