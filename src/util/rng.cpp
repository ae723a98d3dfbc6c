#include "util/rng.hpp"

#include <algorithm>
#include <bit>

namespace pramsim::util {

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& word : s_) {
    word = sm.next();
  }
  // An all-zero state would fix the generator at zero; SplitMix64 cannot
  // produce four zero outputs from any seed, but guard regardless.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) {
    s_[0] = 0x9E3779B97F4A7C15ULL;
  }
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::below(std::uint64_t bound) {
  PRAMSIM_ASSERT(bound >= 1);
  // Lemire's nearly-divisionless bounded sampling with rejection.
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (lo < threshold) {
      x = next();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::uint64_t Rng::between(std::uint64_t lo, std::uint64_t hi) {
  PRAMSIM_ASSERT(lo <= hi);
  return lo + below(hi - lo + 1);
}

double Rng::uniform01() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool Rng::bernoulli(double p) {
  if (p <= 0.0) {
    return false;
  }
  if (p >= 1.0) {
    return true;
  }
  return uniform01() < p;
}

std::vector<std::uint32_t> Rng::permutation(std::uint32_t n) {
  std::vector<std::uint32_t> perm(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    perm[i] = i;
  }
  shuffle(perm);
  return perm;
}

std::vector<std::uint64_t> Rng::sample_without_replacement(std::uint64_t n,
                                                           std::uint64_t k) {
  PRAMSIM_ASSERT(k <= n);
  // Floyd's algorithm: O(k) expected time, independent of n. Membership
  // lives in a flat open-addressed table of >= 2k slots (load <= 1/2);
  // drawn values are at most n - 1 < ~0, so ~0 marks an empty slot.
  constexpr std::uint64_t kEmpty = ~0ULL;
  const std::size_t slots = std::bit_ceil(std::max<std::uint64_t>(2 * k, 16));
  const int shift = 64 - std::countr_zero(slots);
  std::vector<std::uint64_t> table(slots, kEmpty);
  // Fibonacci hashing; true when `value` was absent and is now recorded.
  const auto insert = [&](std::uint64_t value) {
    std::size_t i = (value * 0x9E3779B97F4A7C15ULL) >> shift;
    while (table[i] != kEmpty) {
      if (table[i] == value) {
        return false;
      }
      i = (i + 1) & (slots - 1);
    }
    table[i] = value;
    return true;
  };
  std::vector<std::uint64_t> result;
  result.reserve(k);
  for (std::uint64_t j = n - k; j < n; ++j) {
    const std::uint64_t t = below(j + 1);
    if (insert(t)) {
      result.push_back(t);
    } else {
      insert(j);
      result.push_back(j);
    }
  }
  return result;
}

Rng Rng::split() { return Rng(next() ^ 0xA3EC647659359ACDULL); }

}  // namespace pramsim::util
