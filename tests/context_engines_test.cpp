// Tests for the butterfly / expander substrates and the Ranade / HB
// context engines built on them.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <span>
#include <vector>

#include "core/context_engines.hpp"
#include "majority/majority_memory.hpp"
#include "memmap/memory_map.hpp"
#include "memmap/params.hpp"
#include "network/butterfly.hpp"
#include "network/expander.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace pramsim {
namespace {

/// Schedule one step on `engine` into a fresh result.
majority::EngineResult run(majority::AccessEngine& engine,
                           std::span<const majority::VarRequest> reqs) {
  majority::EngineResult result;
  engine.run_step_into(reqs, result);
  return result;
}

// ------------------------------ butterfly -------------------------------

TEST(Butterfly, ShapeCounts) {
  const auto shape = net::butterfly(8);
  EXPECT_EQ(shape.rows, 8u);
  EXPECT_EQ(shape.levels, 3u);
  EXPECT_EQ(shape.nodes(), 32u);
  EXPECT_EQ(shape.edges(), 48u);
  EXPECT_EQ(shape.max_degree(), 4u);
}

TEST(Butterfly, BitFixingPathReachesDestination) {
  const auto shape = net::butterfly(16);
  util::Rng rng(3);
  for (int trial = 0; trial < 100; ++trial) {
    const auto s = static_cast<std::uint32_t>(rng.below(16));
    const auto t = static_cast<std::uint32_t>(rng.below(16));
    const auto rows = net::bit_fixing_rows(shape, s, t);
    ASSERT_EQ(rows.size(), shape.levels + 1);
    EXPECT_EQ(rows.front(), s);
    EXPECT_EQ(rows.back(), t);
    // Each hop changes at most the bit of its level.
    for (std::uint32_t level = 0; level < shape.levels; ++level) {
      const auto diff = rows[level] ^ rows[level + 1];
      EXPECT_TRUE(diff == 0 || diff == (1U << level));
    }
  }
}

TEST(Butterfly, PermutationCongestionIsModest) {
  const auto shape = net::butterfly(256);
  util::Rng rng(7);
  const auto perm = rng.permutation(256);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  for (std::uint32_t i = 0; i < 256; ++i) {
    pairs.emplace_back(i, perm[i]);
  }
  const auto load = net::route_congestion(shape, pairs);
  EXPECT_EQ(load.dilation, 8u);
  // Random permutations congest O(log n)-ish, far below n.
  EXPECT_LE(load.max_congestion, 32u);
  EXPECT_GE(load.max_congestion, 1u);
}

TEST(Butterfly, SingleDestinationCongestsFully) {
  const auto shape = net::butterfly(64);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  for (std::uint32_t i = 0; i < 64; ++i) {
    pairs.emplace_back(i, 9u);  // everyone to row 9
  }
  const auto load = net::route_congestion(shape, pairs);
  // The final edge into row 9 carries half the packets at least.
  EXPECT_GE(load.max_congestion, 32u);
}

// ------------------------------- expander -------------------------------

TEST(Expander, RegularAndConnected) {
  net::RegularGraph g(256, 6, 11);
  EXPECT_EQ(g.vertices(), 256u);
  for (std::uint32_t v = 0; v < 256; ++v) {
    EXPECT_EQ(g.neighbors(v).size(), 6u);
    // simple graph: no loops, no multi-edges
    std::set<std::uint32_t> distinct(g.neighbors(v).begin(),
                                     g.neighbors(v).end());
    EXPECT_EQ(distinct.size(), 6u);
    EXPECT_EQ(distinct.count(v), 0u);
  }
  EXPECT_TRUE(g.connected());
}

TEST(Expander, DiameterLogarithmic) {
  for (const std::uint32_t n : {64u, 256u, 1024u}) {
    net::RegularGraph g(n, 6, 5);
    ASSERT_TRUE(g.connected());
    const auto diam = g.diameter();
    // Random 6-regular graphs have diameter ~ log_5 n + O(1).
    EXPECT_LE(diam, 2u * static_cast<std::uint32_t>(util::ilog2_ceil(n)));
    EXPECT_GE(diam, 2u);
  }
}

TEST(Expander, SpectralGapNearRamanujan) {
  net::RegularGraph g(512, 8, 3);
  const double l2 = g.lambda2();
  // Ramanujan bound: 2*sqrt(d-1)/d = 2*sqrt(7)/8 ~ 0.661. Random regular
  // graphs land near it; we allow generous slack but demand a real gap.
  EXPECT_LT(l2, 0.85);
  EXPECT_GT(l2, 0.3);
}

TEST(Expander, EccentricityBoundsDiameter) {
  net::RegularGraph g(128, 4, 9);
  ASSERT_TRUE(g.connected());
  EXPECT_LE(g.eccentricity(0), g.diameter());
}

// ---------------------------- Ranade engine -----------------------------

TEST(RanadeEngine, ExpectedTimeLogarithmic) {
  const std::uint32_t n = 256;
  auto map = std::shared_ptr<memmap::MemoryMap>(
      memmap::make_single_copy_map(static_cast<std::uint64_t>(n) * n, n, 5));
  core::RanadeButterflyEngine engine(map, n);
  util::Rng rng(13);
  util::RunningStats times;
  for (int trial = 0; trial < 20; ++trial) {
    const auto vars =
        rng.sample_without_replacement(static_cast<std::uint64_t>(n) * n, n);
    std::vector<majority::VarRequest> reqs;
    for (std::uint32_t i = 0; i < n; ++i) {
      reqs.push_back({VarId(static_cast<std::uint32_t>(vars[i])), ProcId(i)});
    }
    times.add(static_cast<double>(run(engine, reqs).time));
  }
  // 2*(dilation + congestion - 1) with dilation = 8 and congestion
  // O(log n): comfortably below 100, far below n.
  EXPECT_LT(times.mean(), 100.0);
  EXPECT_GE(times.mean(), 16.0);
}

TEST(RanadeEngine, AdversarialBatchBlowsUp) {
  // Deterministic failure mode: all requests to variables hashing to one
  // row serialize — no worst-case guarantee, unlike the HP schemes.
  const std::uint32_t n = 128;
  const std::uint64_t m = static_cast<std::uint64_t>(n) * n;
  auto map = std::shared_ptr<memmap::MemoryMap>(
      memmap::make_single_copy_map(m, n, 5));
  core::RanadeButterflyEngine engine(map, n);
  // Find many variables in one module (the known-hash adversary).
  std::vector<ModuleId> copy(1);
  std::vector<majority::VarRequest> reqs;
  for (std::uint32_t v = 0; v < m && reqs.size() < 64; ++v) {
    map->copies_into(VarId(v), copy);
    if (copy[0].value() == 3) {
      reqs.push_back({VarId(v), ProcId(static_cast<std::uint32_t>(
                                     reqs.size()))});
    }
  }
  ASSERT_GE(reqs.size(), 32u);
  const auto result = run(engine, reqs);
  EXPECT_GE(result.time, 2 * reqs.size());  // fully serialized
}

// ------------------------------ HB engine -------------------------------

TEST(HbEngine, CompletesWithLogOverLoglogRedundancy) {
  const std::uint32_t n = 256;
  const std::uint64_t m = static_cast<std::uint64_t>(n) * n;
  const auto c = core::hb_c(m);
  const auto r = 2 * c - 1;
  EXPECT_GE(c, 2u);
  EXPECT_LE(r, 15u);  // log m/loglog m at m=2^16: 16/4 = 4 -> r = 7
  auto map = std::make_shared<memmap::HashedMap>(m, n, r, 7);
  majority::SchedulerConfig cfg;
  cfg.c = c;
  cfg.cluster_size = r;
  cfg.n_processors = n;
  core::HbExpanderEngine engine(map, cfg, /*graph_degree=*/6,
                                /*graph_seed=*/3);
  EXPECT_GT(engine.cycles_per_round(), 1u);
  util::Rng rng(17);
  const auto vars = rng.sample_without_replacement(m, n);
  std::vector<majority::VarRequest> reqs;
  for (std::uint32_t i = 0; i < n; ++i) {
    reqs.push_back({VarId(static_cast<std::uint32_t>(vars[i])), ProcId(i)});
  }
  const auto result = run(engine, reqs);
  for (const auto mask : result.accessed_mask) {
    EXPECT_GE(static_cast<std::uint32_t>(__builtin_popcountll(mask)), c);
  }
  EXPECT_EQ(result.time % engine.cycles_per_round(), 0u);
}

TEST(HbEngine, RedundancyBelowUwAboveHp) {
  // The paper's §1 ordering: HB's Theta(log m/loglog m) sits between
  // UW's Theta(log m) and HP's Theta(1).
  const std::uint64_t m = 1ULL << 24;
  const auto r_hb = 2 * core::hb_c(m) - 1;
  const auto r_uw = 2 * memmap::uw_c(m, 4.0) - 1;
  const auto r_hp = memmap::lemma2_redundancy(4.0, 2.0, 1.0);
  EXPECT_LT(r_hb, r_uw);
  EXPECT_GT(r_hb, r_hp);
}

TEST(HbEngine, WorksAsMajorityMemory) {
  const std::uint32_t n = 64;
  const std::uint64_t m = static_cast<std::uint64_t>(n) * n;
  const auto c = core::hb_c(m);
  auto map = std::make_shared<memmap::HashedMap>(m, n, 2 * c - 1, 9);
  majority::SchedulerConfig cfg;
  cfg.c = c;
  cfg.cluster_size = 2 * c - 1;
  cfg.n_processors = n;
  majority::MajorityMemory memory(
      std::make_unique<core::HbExpanderEngine>(map, cfg, 6, 5));
  const pram::VarWrite writes[] = {{VarId(42), 777}};
  memory.step({}, {}, writes);
  const VarId reads[] = {VarId(42)};
  pram::Word values[1];
  memory.step(reads, values, {});
  EXPECT_EQ(values[0], 777);
}

}  // namespace
}  // namespace pramsim
