// Tests for universal hashing and the Mehlhorn-Vishkin probabilistic
// baseline memory.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <vector>

#include "hashing/mv_memory.hpp"
#include "hashing/universal.hpp"
#include "util/rng.hpp"
#include "fnv_digest.hpp"

namespace pramsim::hashing {
namespace {

using pram::VarWrite;
using pram::Word;

TEST(Mersenne61, ReduceIsCongruent) {
  util::Rng rng(3);
  for (int trial = 0; trial < 1000; ++trial) {
    const auto x = rng.next() >> 1;  // < 2^63
    const auto r = reduce_m61(x);
    EXPECT_LT(r, kMersenne61);
    EXPECT_EQ(r % kMersenne61, x % kMersenne61);
  }
}

TEST(Mersenne61, MulModMatchesNaive128) {
  util::Rng rng(5);
  for (int trial = 0; trial < 1000; ++trial) {
    const auto a = rng.below(kMersenne61);
    const auto b = rng.below(kMersenne61);
    const auto expect = static_cast<std::uint64_t>(
        (static_cast<__uint128_t>(a) * b) % kMersenne61);
    EXPECT_EQ(mul_mod_m61(a, b), expect);
  }
}

TEST(PolynomialHash, StaysInRange) {
  util::Rng rng(7);
  PolynomialHash h(2, 100, rng);
  for (std::uint64_t x = 0; x < 10'000; ++x) {
    EXPECT_LT(h(x), 100u);
  }
}

TEST(PolynomialHash, RoughlyUniform) {
  util::Rng rng(9);
  PolynomialHash h(2, 16, rng);
  std::vector<std::uint32_t> counts(16, 0);
  const int total = 160'000;
  for (int x = 0; x < total; ++x) {
    ++counts[h(static_cast<std::uint64_t>(x))];
  }
  for (const auto cnt : counts) {
    EXPECT_NEAR(cnt, total / 16.0, total / 16.0 * 0.1);
  }
}

TEST(PolynomialHash, DifferentSeedsDifferentFunctions) {
  util::Rng rng1(1);
  util::Rng rng2(2);
  PolynomialHash h1(2, 1 << 20, rng1);
  PolynomialHash h2(2, 1 << 20, rng2);
  int same = 0;
  for (std::uint64_t x = 0; x < 1000; ++x) {
    same += h1(x) == h2(x) ? 1 : 0;
  }
  EXPECT_LT(same, 20);
}

TEST(MvMemory, OracleConsistency) {
  MvMemory mem(1024, {.n_modules = 32, .k_wise = 2, .seed = 3});
  std::map<std::uint32_t, Word> oracle;
  util::Rng rng(11);
  for (int step = 0; step < 100; ++step) {
    std::set<std::uint32_t> rset;
    std::set<std::uint32_t> wset;
    for (std::uint64_t i = 0, k = rng.below(20); i < k; ++i) {
      rset.insert(static_cast<std::uint32_t>(rng.below(1024)));
    }
    for (std::uint64_t i = 0, k = rng.below(20); i < k; ++i) {
      wset.insert(static_cast<std::uint32_t>(rng.below(1024)));
    }
    std::vector<VarId> reads(rset.begin(), rset.end());
    std::vector<VarWrite> writes;
    for (const auto v : wset) {
      writes.push_back({VarId(v), static_cast<Word>(rng.below(1 << 20))});
    }
    std::vector<Word> values(reads.size());
    mem.step(reads, values, writes);
    for (std::size_t i = 0; i < reads.size(); ++i) {
      const auto it = oracle.find(reads[i].value());
      ASSERT_EQ(values[i], it == oracle.end() ? 0 : it->second);
    }
    for (const auto& w : writes) {
      oracle[w.var.value()] = w.value;
    }
  }
}

TEST(MvMemory, TimeIsMaxModuleLoad) {
  MvMemory mem(4096, {.n_modules = 64, .k_wise = 2, .seed = 5});
  // Find >= 3 variables hashing to the same module, request exactly those.
  std::map<std::uint32_t, std::vector<std::uint32_t>> by_module;
  std::uint32_t hot_module = 0;
  for (std::uint32_t v = 0; v < 4096; ++v) {
    auto& bucket = by_module[mem.module_of(VarId(v))];
    bucket.push_back(v);
    if (bucket.size() >= 3) {
      hot_module = mem.module_of(VarId(v));
      break;
    }
  }
  const auto& hot = by_module[hot_module];
  ASSERT_GE(hot.size(), 3u);
  std::vector<VarId> reads;
  for (std::size_t i = 0; i < 3; ++i) {
    reads.emplace_back(hot[i]);
  }
  std::vector<Word> values(reads.size());
  const auto cost = mem.step(reads, values, {});
  EXPECT_EQ(cost.time, 3u);
}

TEST(MvMemory, AdversarialBatchForcesSerialization) {
  // The deterministic-vs-probabilistic contrast: with a known hash, an
  // adversary can pick n variables in one module and force n rounds.
  MvMemory mem(1 << 16, {.n_modules = 64, .k_wise = 2, .seed = 7});
  std::map<std::uint32_t, std::vector<std::uint32_t>> by_module;
  for (std::uint32_t v = 0; v < (1 << 16); ++v) {
    by_module[mem.module_of(VarId(v))].push_back(v);
  }
  const auto& hottest =
      std::max_element(by_module.begin(), by_module.end(),
                       [](const auto& a, const auto& b) {
                         return a.second.size() < b.second.size();
                       })
          ->second;
  const std::size_t k = std::min<std::size_t>(hottest.size(), 64);
  std::vector<VarId> reads;
  for (std::size_t i = 0; i < k; ++i) {
    reads.emplace_back(hottest[i]);
  }
  std::vector<Word> values(reads.size());
  const auto cost = mem.step(reads, values, {});
  EXPECT_EQ(cost.time, k);  // fully serialized
}

TEST(MvMemory, RehashTriggersAboveThreshold) {
  MvMemory mem(1 << 14,
               {.n_modules = 4, .k_wise = 2, .seed = 9, .rehash_threshold = 2});
  std::vector<VarId> reads;
  for (std::uint32_t v = 0; v < 64; ++v) {
    reads.emplace_back(v);
  }
  std::vector<Word> values(reads.size());
  mem.step(reads, values, {});
  // 64 distinct vars over 4 modules: some module holds >= 16 > 2.
  EXPECT_GE(mem.rehashes(), 1u);
}

TEST(MvMemory, MaxLoadGrowsSlowlyWithN) {
  // Balls-in-bins: n distinct vars into M = n modules gives max load
  // ~ log n / log log n in expectation — far below n.
  for (const std::uint32_t n : {256u, 1024u, 4096u}) {
    MvMemory mem(static_cast<std::uint64_t>(n) * n,
                 {.n_modules = n, .k_wise = 2, .seed = 13});
    util::Rng rng(17);
    util::RunningStats max_loads;
    for (int trial = 0; trial < 10; ++trial) {
      const auto vars =
          rng.sample_without_replacement(static_cast<std::uint64_t>(n) * n, n);
      std::vector<VarId> reads;
      reads.reserve(vars.size());
      for (const auto v : vars) {
        reads.emplace_back(static_cast<std::uint32_t>(v));
      }
      std::vector<Word> values(reads.size());
      const auto cost = mem.step(reads, values, {});
      max_loads.add(static_cast<double>(cost.time));
    }
    const double bound = 4.0 * std::log2(n) / std::log2(std::log2(n));
    EXPECT_LT(max_loads.mean(), bound) << "n=" << n;
    EXPECT_GE(max_loads.mean(), 2.0) << "n=" << n;
  }
}

TEST(MvMemory, AdversarialVarsGoldenDigest) {
  // Bit-identity pin computed with the original bucket-map scan: every
  // preimage, in scan order, for every seed.
  const auto digest_of = [](const MvMemory& mem, std::uint32_t count,
                            std::initializer_list<std::uint64_t> seeds) {
    testing::Fnv64 digest;
    for (const auto seed : seeds) {
      const auto vars = mem.adversarial_vars(count, seed);
      digest.add(vars.size());
      for (const auto v : vars) {
        digest.add(v.value());
      }
    }
    return digest.value();
  };
  // The adversarial-hashed shape: m = n^2, M = n = 256.
  const MvMemory mem(1 << 16, {.n_modules = 256, .k_wise = 2, .seed = 42});
  EXPECT_EQ(digest_of(mem, 256, {1, 2, 3, 4, 5, 6, 7, 8}), 0x16C75F577ED87A18ULL);
  EXPECT_EQ(digest_of(mem, 1, {9, 10}), 0x41E9F190238AF36AULL);
  // m = 300 over 64 modules: no module reaches 64 preimages, so the scan
  // covers the whole space and returns the first fullest bucket.
  const MvMemory small(300, {.n_modules = 64, .k_wise = 3, .seed = 11});
  EXPECT_EQ(digest_of(small, 64, {1, 2, 3}), 0xE8ECD0CBA2B7462CULL);
  // Wider module ids than the M = 256 shape: 1000 and 70000 modules.
  const MvMemory wide(1 << 17, {.n_modules = 1000, .k_wise = 2, .seed = 13});
  EXPECT_EQ(digest_of(wide, 64, {1, 2}), 0xAA58833AA18E64F5ULL);
  const MvMemory widest(1 << 17,
                        {.n_modules = 70000, .k_wise = 2, .seed = 17});
  EXPECT_EQ(digest_of(widest, 3, {1, 2}), 0x2A5C87C7081432D0ULL);
  // count > m is clamped to m.
  EXPECT_EQ(digest_of(small, 1000, {4}), 0x0057CBA58F97F44CULL);
  EXPECT_TRUE(small.adversarial_vars(0, 5).empty());
}

}  // namespace
}  // namespace pramsim::hashing
