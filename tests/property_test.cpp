// Cross-cutting property tests (parameterized sweeps):
//  * Lemma 2 expansion holds across many independent map seeds — the
//    "almost every random map is good" content of the union bound;
//  * tree routing pipelines (k same-path requests cost path + O(k), not
//    k * path) — the LPP latency-hiding fact Theorem 3's stage 2 uses;
//  * protocol invariants under seed sweeps: completion, >= c accesses,
//    mask subset-of-copies, determinism;
//  * majority memory linearizability under longer mixed workloads on the
//    2DMOT engine (not just the DMMPC one).
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "core/driver.hpp"
#include "core/schemes.hpp"
#include "majority/majority_memory.hpp"
#include "memmap/expansion.hpp"
#include "memmap/memory_map.hpp"
#include "memmap/params.hpp"
#include "network/paths.hpp"
#include "network/router.hpp"
#include "pram/trace.hpp"
#include "util/rng.hpp"

namespace pramsim {
namespace {

// ------------------------- Lemma 2 across seeds -------------------------

class MapSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MapSeedSweep, ExpansionPropertyHolds) {
  const auto seed = GetParam();
  const auto params = memmap::derive_params(512, 2.0, 1.0, 4.0);
  memmap::HashedMap map(params.m, params.n_modules, params.r, seed);
  const std::uint64_t q = params.n / params.r;
  const auto res = memmap::measure_expansion(map, params.c, q, 15, seed + 1);
  EXPECT_GE(res.ratio_vs_bound(params.b), 1.0)
      << "seed " << seed << ": a bad map (union bound says this should be "
      << "exponentially unlikely)";
}

INSTANTIATE_TEST_SUITE_P(Seeds, MapSeedSweep,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u,
                                           55u, 89u, 144u, 233u));

// ------------------------------- pipelining -----------------------------

TEST(Pipelining, SameColumnRequestsOverlapLatency) {
  // k packets from k different rows into the SAME column and module:
  // store-and-forward tree routing pipelines them, so total time is
  // ~ path + k (port serialization), far below k * path.
  const std::uint32_t S = 64;
  const std::uint32_t k = 32;
  std::vector<net::Packet> packets(k);
  std::size_t path_len = 0;
  for (std::uint32_t p = 0; p < k; ++p) {
    packets[p].id = p;
    packets[p].path = net::hp_request_path(S, p, 7, 3);
    path_len = packets[p].path.size();
  }
  const auto report = net::route_all(packets);
  EXPECT_EQ(report.delivered, k);
  std::uint64_t last = 0;
  for (const auto& packet : packets) {
    last = std::max(last, packet.delivered_at);
  }
  // Pipelined bound: path + (k-1) port services + tree merge slack.
  EXPECT_LE(last, path_len + 2 * k);
  // Non-pipelined would be >= k * (path/2); assert we are far below.
  EXPECT_LT(last, static_cast<std::uint64_t>(k) * path_len / 2);
}

TEST(Pipelining, StagedInjectionMatchesLppPhaseAccounting) {
  // The LPP stage-2 remark: "O(log n) requests satisfied per phase to
  // match the O(log n) latency". With k = log S requests queued on one
  // column, one phase of ~2 round trips suffices for all of them.
  const std::uint32_t S = 64;
  const std::uint32_t k = 6;  // log2 S
  std::vector<net::Packet> packets(k);
  for (std::uint32_t p = 0; p < k; ++p) {
    packets[p].id = p;
    packets[p].path = net::hp_request_path(S, p, 9, 11);
  }
  const auto rt = 2 * packets[0].path.size() - 1;
  const auto report = net::route_all(packets);
  EXPECT_EQ(report.delivered, k);
  EXPECT_LE(report.cycles, 2 * rt);
}

// --------------------------- protocol invariants ------------------------

class EngineSeedSweep
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(EngineSeedSweep, InvariantsHold) {
  const auto [kind_idx, seed] = GetParam();
  const auto kind = static_cast<core::SchemeKind>(kind_idx);
  const std::uint32_t n = 32;
  auto inst = core::make_scheme({.kind = kind, .n = n, .seed = seed});
  util::Rng rng(seed * 7 + 1);
  const auto vars = rng.sample_without_replacement(inst.m, n);
  std::vector<majority::VarRequest> reqs;
  for (std::uint32_t i = 0; i < n; ++i) {
    reqs.push_back({VarId(static_cast<std::uint32_t>(vars[i])), ProcId(i)});
  }
  majority::EngineResult result;
  inst.engine->run_step_into(reqs, result);
  ASSERT_EQ(result.accessed_mask.size(), reqs.size());
  std::vector<ModuleId> copies(inst.r);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const auto mask = result.accessed_mask[i];
    // >= c copies accessed...
    EXPECT_GE(static_cast<std::uint32_t>(__builtin_popcountll(mask)),
              inst.c);
    // ...and only bits < r can be set.
    EXPECT_EQ(mask >> inst.r, 0u);
  }
  // Work is at least c per request and bounded by r per request.
  EXPECT_GE(result.work, static_cast<std::uint64_t>(inst.c) * reqs.size());
  EXPECT_LE(result.work, static_cast<std::uint64_t>(inst.r) * reqs.size());
  // Determinism.
  majority::EngineResult again;
  inst.engine->run_step_into(reqs, again);
  EXPECT_EQ(again.time, result.time);
  EXPECT_EQ(again.accessed_mask, result.accessed_mask);
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndSeeds, EngineSeedSweep,
    ::testing::Combine(
        ::testing::Values(static_cast<int>(core::SchemeKind::kHpMot),
                          static_cast<int>(core::SchemeKind::kDmmpc),
                          static_cast<int>(core::SchemeKind::kLppMot)),
        ::testing::Values(1u, 7u, 42u, 1000u)));

// ------------------ linearizability on the network engine ---------------

TEST(MotLinearizability, LongMixedWorkloadMatchesOracle) {
  auto memory = core::make_memory(
      {.kind = core::SchemeKind::kHpMot, .n = 16, .seed = 5});
  const std::uint64_t m = memory->size();
  std::map<std::uint32_t, pram::Word> oracle;
  util::Rng rng(99);
  for (int step = 0; step < 60; ++step) {
    std::set<std::uint32_t> rset;
    std::set<std::uint32_t> wset;
    for (std::uint64_t i = 0, k = rng.below(8); i < k; ++i) {
      rset.insert(static_cast<std::uint32_t>(rng.below(m)));
    }
    for (std::uint64_t i = 0, k = rng.below(8); i < k; ++i) {
      wset.insert(static_cast<std::uint32_t>(rng.below(m)));
    }
    std::vector<VarId> reads(rset.begin(), rset.end());
    std::vector<pram::VarWrite> writes;
    for (const auto v : wset) {
      writes.push_back({VarId(v), static_cast<pram::Word>(rng.below(1 << 20))});
    }
    std::vector<pram::Word> values(reads.size());
    memory->step(reads, values, writes);
    for (std::size_t i = 0; i < reads.size(); ++i) {
      const auto it = oracle.find(reads[i].value());
      ASSERT_EQ(values[i], it == oracle.end() ? 0 : it->second)
          << "step " << step;
    }
    for (const auto& w : writes) {
      oracle[w.var.value()] = w.value;
    }
  }
}

// ------------------------------ trace driver ----------------------------

TEST(DriverProperty, StressIsDeterministicGivenSeed) {
  core::SimulationPipeline a({.kind = core::SchemeKind::kDmmpc, .n = 64});
  core::SimulationPipeline b({.kind = core::SchemeKind::kDmmpc, .n = 64});
  const auto ra = a.run_stress({.steps_per_family = 3, .seed = 777});
  const auto rb = b.run_stress({.steps_per_family = 3, .seed = 777});
  EXPECT_EQ(ra.steps, rb.steps);
  EXPECT_DOUBLE_EQ(ra.time.mean(), rb.time.mean());
  EXPECT_DOUBLE_EQ(ra.work.mean(), rb.work.mean());
}

TEST(DriverProperty, EverySchemeKindRunsTheStressPipeline) {
  for (const auto kind : core::all_scheme_kinds()) {
    core::SimulationPipeline pipeline({.kind = kind, .n = 16, .seed = 3});
    const auto result =
        pipeline.run_stress({.steps_per_family = 1, .seed = 11});
    EXPECT_GE(result.steps, 3u) << core::to_string(kind);
    EXPECT_GT(result.time.mean(), 0.0) << core::to_string(kind);
    EXPECT_GE(result.storage_factor, 1.0) << core::to_string(kind);
  }
}

}  // namespace
}  // namespace pramsim
