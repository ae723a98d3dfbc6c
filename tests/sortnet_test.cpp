// Tests for the Batcher comparator network and the Alt-BDN baseline
// engine built on it.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "core/alt_engine.hpp"
#include "core/schemes.hpp"
#include "sortnet/batcher.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace pramsim::sortnet {
namespace {

/// Schedule one step on `engine` into a fresh result.
majority::EngineResult run(majority::AccessEngine& engine,
                           std::span<const majority::VarRequest> reqs) {
  majority::EngineResult result;
  engine.run_step_into(reqs, result);
  return result;
}

TEST(Batcher, DepthIsLogSquaredShape) {
  for (const std::uint32_t n : {2u, 4u, 8u, 16u, 64u, 256u, 1024u}) {
    const auto net = batcher_sort(n);
    const auto logn = static_cast<std::size_t>(util::ilog2_floor(n));
    EXPECT_EQ(net.depth(), logn * (logn + 1) / 2) << "n=" << n;
    EXPECT_EQ(net.lines(), n);
  }
}

TEST(Batcher, SizeIsNLogSquaredShape) {
  // Batcher's network has Theta(n log^2 n) comparators.
  const auto net = batcher_sort(256);
  const double n = 256.0;
  const double logn = 8.0;
  const double comparators = static_cast<double>(net.size());
  EXPECT_GT(comparators, 0.2 * n * logn * logn / 4.0);
  EXPECT_LT(comparators, n * logn * logn);
}

class BatcherZeroOne : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(BatcherZeroOne, SortsAllZeroOneInputs) {
  // The 0-1 principle: a comparator network sorts every input iff it
  // sorts every 0-1 input. Exhaustive up to n = 16 (65536 cases).
  const std::uint32_t n = GetParam();
  const auto net = batcher_sort(n);
  for (std::uint32_t pattern = 0; pattern < (1U << n); ++pattern) {
    std::vector<int> values(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      values[i] = (pattern >> i) & 1U;
    }
    net.apply(std::span<int>(values));
    for (std::uint32_t i = 0; i + 1 < n; ++i) {
      ASSERT_LE(values[i], values[i + 1])
          << "n=" << n << " pattern=" << pattern;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BatcherZeroOne,
                         ::testing::Values(2u, 4u, 8u, 16u));

TEST(Batcher, SortsRandomWordInputs) {
  util::Rng rng(5);
  for (const std::uint32_t n : {32u, 128u, 1024u}) {
    const auto net = batcher_sort(n);
    std::vector<std::uint64_t> values(n);
    for (auto& v : values) {
      v = rng.next();
    }
    auto expected = values;
    std::sort(expected.begin(), expected.end());
    net.apply(std::span<std::uint64_t>(values));
    EXPECT_EQ(values, expected) << "n=" << n;
  }
}

TEST(Batcher, LayersAreLineDisjoint) {
  const auto net = batcher_sort(64);
  for (const auto& layer : net.layers()) {
    std::vector<bool> used(64, false);
    for (const auto& comp : layer) {
      ASSERT_LT(comp.lo, comp.hi);
      ASSERT_FALSE(used[comp.lo]);
      ASSERT_FALSE(used[comp.hi]);
      used[comp.lo] = true;
      used[comp.hi] = true;
    }
  }
}

TEST(AltBdn, FactoryProducesLogRedundancySortingScheme) {
  const auto inst =
      core::make_scheme({.kind = core::SchemeKind::kAltBdn, .n = 256});
  EXPECT_EQ(inst.n_modules, 256u);
  EXPECT_GT(inst.r, 7u);  // Theta(log m)
  // cycles/round = batcher depth (8*9/2 = 36) + 2 log n (16).
  EXPECT_EQ(inst.request_hops, 36u + 16u);
}

TEST(AltBdn, StepCompletesAndCostsDepthPerRound) {
  auto inst = core::make_scheme({.kind = core::SchemeKind::kAltBdn, .n = 64});
  util::Rng rng(3);
  const auto vars = rng.sample_without_replacement(inst.m, 64);
  std::vector<majority::VarRequest> reqs;
  for (std::uint32_t i = 0; i < 64; ++i) {
    reqs.push_back({VarId(static_cast<std::uint32_t>(vars[i])), ProcId(i)});
  }
  const auto result = run(*inst.engine, reqs);
  for (const auto mask : result.accessed_mask) {
    EXPECT_GE(static_cast<std::uint32_t>(__builtin_popcountll(mask)),
              inst.c);
  }
  const auto* engine =
      dynamic_cast<const core::AltBdnEngine*>(inst.engine);
  ASSERT_NE(engine, nullptr);
  EXPECT_EQ(result.time % engine->cycles_per_round(), 0u);
  EXPECT_GE(result.time / engine->cycles_per_round(), 1u);
}

TEST(AltBdn, SlowerThanHpMotAtSameN) {
  // The paper's positioning: the sorting-network baseline pays
  // Theta(log n log m) per step, which at these sizes exceeds the
  // HP-2DMOT's measured cycles.
  const std::uint32_t n = 128;
  auto alt = core::make_scheme({.kind = core::SchemeKind::kAltBdn, .n = n});
  auto hp = core::make_scheme({.kind = core::SchemeKind::kHpMot, .n = n});
  util::Rng rng(7);
  const auto vars = rng.sample_without_replacement(hp.m, n);
  std::vector<majority::VarRequest> reqs;
  for (std::uint32_t i = 0; i < n; ++i) {
    reqs.push_back({VarId(static_cast<std::uint32_t>(vars[i])), ProcId(i)});
  }
  const auto t_alt = run(*alt.engine, reqs).time;
  const auto t_hp = run(*hp.engine, reqs).time;
  EXPECT_GT(t_alt, t_hp);
}

}  // namespace
}  // namespace pramsim::sortnet
