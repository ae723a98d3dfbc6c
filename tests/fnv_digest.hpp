// 64-bit FNV-1a digest for golden bit-identity tests: pin a long output
// sequence (adversary batches, samples) to one constant, so an
// optimization that changes any element or its order fails loudly.
#pragma once

#include <cstdint>

namespace pramsim::testing {

class Fnv64 {
 public:
  /// Fold `value` in as 8 little-endian bytes.
  void add(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (value >> (8 * i)) & 0xFFU;
      hash_ *= 0x100000001B3ULL;
    }
  }

  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

}  // namespace pramsim::testing
