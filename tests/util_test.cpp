// Unit and property tests for src/util.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <set>
#include <vector>

#include "util/bitset.hpp"
#include "util/fit.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/stopwatch.hpp"
#include "util/strong_id.hpp"
#include "util/table.hpp"
#include "fnv_digest.hpp"

namespace pramsim::util {
namespace {

// ---------------------------------------------------------------- math ----

TEST(Math, Ilog2Floor) {
  EXPECT_EQ(ilog2_floor(1), 0);
  EXPECT_EQ(ilog2_floor(2), 1);
  EXPECT_EQ(ilog2_floor(3), 1);
  EXPECT_EQ(ilog2_floor(4), 2);
  EXPECT_EQ(ilog2_floor(1023), 9);
  EXPECT_EQ(ilog2_floor(1024), 10);
  EXPECT_EQ(ilog2_floor(~0ULL), 63);
}

TEST(Math, Ilog2Ceil) {
  EXPECT_EQ(ilog2_ceil(1), 0);
  EXPECT_EQ(ilog2_ceil(2), 1);
  EXPECT_EQ(ilog2_ceil(3), 2);
  EXPECT_EQ(ilog2_ceil(4), 2);
  EXPECT_EQ(ilog2_ceil(5), 3);
  EXPECT_EQ(ilog2_ceil(1ULL << 40), 40);
  EXPECT_EQ(ilog2_ceil((1ULL << 40) + 1), 41);
}

TEST(Math, Pow2Helpers) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(48));
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(64), 64u);
  EXPECT_EQ(next_pow2(65), 128u);
}

TEST(Math, CeilDiv) {
  EXPECT_EQ(ceil_div(0, 4), 0u);
  EXPECT_EQ(ceil_div(1, 4), 1u);
  EXPECT_EQ(ceil_div(4, 4), 1u);
  EXPECT_EQ(ceil_div(5, 4), 2u);
}

TEST(Math, Ipow) {
  EXPECT_EQ(ipow(2, 10), 1024u);
  EXPECT_EQ(ipow(10, 0), 1u);
  EXPECT_EQ(ipow(3, 4), 81u);
  EXPECT_EQ(ipow(1, 63), 1u);
}

TEST(Math, Isqrt) {
  EXPECT_EQ(isqrt(0), 0u);
  EXPECT_EQ(isqrt(1), 1u);
  EXPECT_EQ(isqrt(3), 1u);
  EXPECT_EQ(isqrt(4), 2u);
  EXPECT_EQ(isqrt(15), 3u);
  EXPECT_EQ(isqrt(16), 4u);
  EXPECT_EQ(isqrt(1ULL << 62), 1ULL << 31);
}

TEST(Math, LnBinomialMatchesSmallExactValues) {
  // C(10, 3) = 120, C(52, 5) = 2598960.
  EXPECT_NEAR(std::exp(ln_binomial(10, 3)), 120.0, 1e-6);
  EXPECT_NEAR(std::exp(ln_binomial(52, 5)), 2598960.0, 1e-3);
}

TEST(Math, LnBinomialOutOfRangeIsMinusInf) {
  EXPECT_EQ(ln_binomial(5, 6), -std::numeric_limits<double>::infinity());
  EXPECT_EQ(ln_binomial(5, -1), -std::numeric_limits<double>::infinity());
}

TEST(Math, Log2BinomialSymmetry) {
  for (int n = 2; n <= 40; n += 7) {
    for (int k = 0; k <= n; ++k) {
      EXPECT_NEAR(log2_binomial(n, k), log2_binomial(n, n - k), 1e-9)
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(Math, LnAddExp) {
  EXPECT_NEAR(ln_add_exp(std::log(3.0), std::log(5.0)), std::log(8.0), 1e-12);
  const double ninf = -std::numeric_limits<double>::infinity();
  EXPECT_EQ(ln_add_exp(ninf, 2.0), 2.0);
  EXPECT_EQ(ln_add_exp(2.0, ninf), 2.0);
}

TEST(Math, LogSqOverLoglogMonotone) {
  double prev = 0.0;
  for (double n : {16.0, 64.0, 256.0, 1024.0, 65536.0}) {
    const double v = log2_sq_over_loglog(n);
    EXPECT_GT(v, prev);
    prev = v;
  }
}

// ----------------------------------------------------------------- rng ----

TEST(Rng, DeterministicForSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    same += a.next() == b.next() ? 1 : 0;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, BelowInRangeAndCoversAllResidues) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.below(7);
    ASSERT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, Uniform01Bounds) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, PermutationIsPermutation) {
  Rng rng(3);
  const auto p = rng.permutation(257);
  std::vector<bool> seen(257, false);
  for (const auto v : p) {
    ASSERT_LT(v, 257u);
    ASSERT_FALSE(seen[v]);
    seen[v] = true;
  }
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    const auto sample = rng.sample_without_replacement(1000, 64);
    ASSERT_EQ(sample.size(), 64u);
    std::set<std::uint64_t> s(sample.begin(), sample.end());
    ASSERT_EQ(s.size(), 64u);
    for (const auto v : sample) {
      ASSERT_LT(v, 1000u);
    }
  }
}

TEST(Rng, SampleFullRange) {
  Rng rng(13);
  auto sample = rng.sample_without_replacement(16, 16);
  std::sort(sample.begin(), sample.end());
  for (std::uint64_t i = 0; i < 16; ++i) {
    EXPECT_EQ(sample[i], i);
  }
}

TEST(Rng, SampleWithoutReplacementGoldenDigest) {
  // Bit-identity pin computed with the original unordered_set Floyd
  // sampler: the draw sequence and the output order must not change.
  Rng params(2024);
  Rng rng(99);
  testing::Fnv64 digest;
  for (int i = 0; i < 300; ++i) {
    // Mostly small spaces (collisions are frequent), some huge ones.
    const std::uint64_t n =
        i % 10 == 9 ? (1ULL << 40) + params.below(1ULL << 40)
                    : params.below(5000);
    const std::uint64_t k = params.below(std::min<std::uint64_t>(n, 3000) + 1);
    const auto sample = rng.sample_without_replacement(n, k);
    digest.add(sample.size());
    for (const auto v : sample) {
      digest.add(v);
    }
  }
  EXPECT_EQ(digest.value(), 0x884321321CF83B54ULL);
}

TEST(Rng, BernoulliEdges) {
  Rng rng(5);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
}

TEST(Rng, SplitStreamsDecorrelated) {
  Rng parent(77);
  Rng child = parent.split();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    same += parent.next() == child.next() ? 1 : 0;
  }
  EXPECT_LT(same, 3);
}

// -------------------------------------------------------------- bitset ----

TEST(Bitset, SetTestReset) {
  DynamicBitset bs(130);
  EXPECT_EQ(bs.size(), 130u);
  EXPECT_TRUE(bs.none());
  bs.set(0);
  bs.set(64);
  bs.set(129);
  EXPECT_TRUE(bs.test(0));
  EXPECT_TRUE(bs.test(64));
  EXPECT_TRUE(bs.test(129));
  EXPECT_FALSE(bs.test(1));
  EXPECT_EQ(bs.count(), 3u);
  bs.reset(64);
  EXPECT_FALSE(bs.test(64));
  EXPECT_EQ(bs.count(), 2u);
}

TEST(Bitset, SetAllRespectsSize) {
  DynamicBitset bs(70);
  bs.set_all();
  EXPECT_EQ(bs.count(), 70u);
}

TEST(Bitset, ConstructAllOnes) {
  DynamicBitset bs(65, true);
  EXPECT_EQ(bs.count(), 65u);
}

TEST(Bitset, FindNextScansCorrectly) {
  DynamicBitset bs(200);
  bs.set(3);
  bs.set(77);
  bs.set(199);
  EXPECT_EQ(bs.find_next(0), 3u);
  EXPECT_EQ(bs.find_next(3), 3u);
  EXPECT_EQ(bs.find_next(4), 77u);
  EXPECT_EQ(bs.find_next(78), 199u);
  EXPECT_EQ(bs.find_next(200), 200u);
  bs.reset(199);
  EXPECT_EQ(bs.find_next(78), 200u);
}

TEST(Bitset, FindNextIterationVisitsAllSetBits) {
  DynamicBitset bs(500);
  std::set<std::size_t> expected;
  Rng rng(21);
  for (int i = 0; i < 100; ++i) {
    const auto v = rng.below(500);
    bs.set(v);
    expected.insert(v);
  }
  std::set<std::size_t> visited;
  for (std::size_t i = bs.find_next(0); i < bs.size(); i = bs.find_next(i + 1)) {
    visited.insert(i);
  }
  EXPECT_EQ(visited, expected);
}

// --------------------------------------------------------------- stats ----

TEST(Stats, RunningStatsBasics) {
  RunningStats rs;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    rs.add(x);
  }
  EXPECT_EQ(rs.count(), 8u);
  EXPECT_NEAR(rs.mean(), 5.0, 1e-12);
  EXPECT_NEAR(rs.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(rs.min(), 2.0);
  EXPECT_EQ(rs.max(), 9.0);
}

TEST(Stats, MergeMatchesSequential) {
  Rng rng(33);
  RunningStats all;
  RunningStats a;
  RunningStats b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform01() * 10.0;
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(Stats, Percentiles) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) {
    s.add(static_cast<double>(i));
  }
  EXPECT_NEAR(s.percentile(0), 1.0, 1e-12);
  EXPECT_NEAR(s.percentile(100), 100.0, 1e-12);
  EXPECT_NEAR(s.median(), 50.5, 1e-12);
  EXPECT_NEAR(s.percentile(99), 99.01, 1e-9);
}

TEST(Stats, HistogramCountsAndOverflow) {
  Histogram h(10);
  for (std::uint64_t i = 0; i < 20; ++i) {
    h.add(i);
  }
  EXPECT_EQ(h.total(), 20u);
  EXPECT_EQ(h.bucket(5), 1u);
  EXPECT_EQ(h.overflow(), 9u);  // 11..19
  EXPECT_FALSE(h.ascii().empty());
}

// ----------------------------------------------------------------- fit ----

TEST(Fit, RecoversExactLine) {
  std::vector<double> x{1, 2, 3, 4, 5};
  std::vector<double> y{3, 5, 7, 9, 11};  // y = 1 + 2x
  const auto fit = least_squares(x, y);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-9);
  EXPECT_NEAR(fit.slope, 2.0, 1e-9);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(Fit, IdentifiesLogShape) {
  std::vector<double> n;
  std::vector<double> y;
  for (double v : {16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0}) {
    n.push_back(v);
    y.push_back(3.0 + 2.5 * std::log2(v));
  }
  EXPECT_EQ(best_shape(n, y), "log n");
}

TEST(Fit, IdentifiesLogSqOverLoglogShape) {
  std::vector<double> n;
  std::vector<double> y;
  for (double v : {16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0}) {
    const double l = std::log2(v);
    n.push_back(v);
    y.push_back(1.0 + 0.7 * l * l / std::log2(l));
  }
  EXPECT_EQ(best_shape(n, y), "log^2 n/loglog n");
}

TEST(Fit, IdentifiesConstantShape) {
  std::vector<double> n{16, 64, 256, 1024, 4096};
  std::vector<double> y{5.0, 5.0, 5.0, 5.0, 5.0};
  const auto fits = fit_shapes(n, y);
  // All shapes fit a constant perfectly with slope ~0; the constant shape
  // must be among the ties at R^2 = 1.
  EXPECT_NEAR(fits.front().fit.r_squared, 1.0, 1e-9);
}

// --------------------------------------------------------------- table ----

TEST(Table, RendersAlignedAsciiAndCsv) {
  Table t({"scheme", "n", "time"});
  t.set_title("demo");
  t.add_row({std::string("HP-2DMOT"), std::int64_t{256}, 12.5});
  t.add_row({std::string("LPP"), std::int64_t{1024}, 99.125});
  const auto s = t.to_string(2);
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("HP-2DMOT"), std::string::npos);
  EXPECT_NE(s.find("99.12"), std::string::npos);
  const auto csv = t.to_csv(3);
  EXPECT_NE(csv.find("scheme,n,time"), std::string::npos);
  EXPECT_NE(csv.find("LPP,1024,99.125"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cols(), 3u);
}

// ----------------------------------------------------------- strong id ----

TEST(StrongId, DistinctTypesAndOrdering) {
  const ProcId p1(3);
  const ProcId p2(5);
  EXPECT_LT(p1, p2);
  EXPECT_EQ(p1.value(), 3u);
  EXPECT_EQ(p1.index(), 3u);
  static_assert(!std::is_convertible_v<ProcId, ModuleId>);
  static_assert(!std::is_convertible_v<std::uint32_t, ProcId>);
}

// ----------------------------------------------------------- stopwatch ---

TEST(Stopwatch, FakeClockMakesElapsedExact) {
  set_fake_clock_override(/*start_ns=*/500, /*tick_ns=*/10);
  ASSERT_TRUE(fake_clock_active());
  // Construction reads the clock once; each elapsed query reads it once
  // more, so consecutive reads advance by exactly one tick.
  Stopwatch watch;
  EXPECT_EQ(watch.elapsed_ns(), 10u);
  EXPECT_EQ(watch.elapsed_ns(), 20u);
  watch.restart();
  EXPECT_EQ(watch.elapsed_ns(), 10u);
  // elapsed_seconds() is one more clock query, so one more tick.
  EXPECT_DOUBLE_EQ(watch.elapsed_seconds(), 20e-9);
  clear_fake_clock_override();
  EXPECT_FALSE(fake_clock_active());
}

TEST(Stopwatch, RealClockIsMonotone) {
  const Stopwatch watch;
  const auto first = watch.elapsed_ns();
  const auto second = watch.elapsed_ns();
  EXPECT_GE(second, first);
}

}  // namespace
}  // namespace pramsim::util
