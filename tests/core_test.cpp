// Tests for the scheme factory, the 2DMOT engine, the trace driver, and
// cross-scheme end-to-end equivalence: the same P-RAM programs must
// produce bit-identical results on the ideal machine and on every
// simulating machine.
#include <gtest/gtest.h>

#include <bit>
#include <memory>
#include <span>
#include <unordered_set>
#include <vector>

#include "core/driver.hpp"
#include "core/mot_engine.hpp"
#include "core/schemes.hpp"
#include "majority/majority_memory.hpp"
#include "memmap/memory_map.hpp"
#include "pram/machine.hpp"
#include "pram/programs.hpp"
#include "pram/trace.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"
#include "fnv_digest.hpp"

namespace pramsim::core {
namespace {

using majority::VarRequest;

std::vector<VarRequest> distinct_requests(std::uint32_t count, std::uint64_t m,
                                          std::uint64_t seed) {
  util::Rng rng(seed);
  const auto vars = rng.sample_without_replacement(m, count);
  std::vector<VarRequest> reqs;
  reqs.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    reqs.push_back({VarId(static_cast<std::uint32_t>(vars[i])), ProcId(i)});
  }
  return reqs;
}

majority::EngineResult run(majority::AccessEngine& engine,
                           std::span<const VarRequest> reqs) {
  majority::EngineResult result;
  engine.run_step_into(reqs, result);
  return result;
}

// --------------------------------------------------------- factory ------

TEST(Schemes, HpMotGeometryAndConstantRedundancy) {
  for (const std::uint32_t n : {16u, 64u, 256u}) {
    const auto inst = make_scheme({.kind = SchemeKind::kHpMot, .n = n});
    EXPECT_EQ(inst.n_modules, n * n) << n;       // side = n at eps = 1
    EXPECT_EQ(inst.r, 7u) << n;                  // constant in n
    EXPECT_NEAR(inst.eps_effective, 1.0, 1e-9);
    EXPECT_GT(inst.switches, 0u);
    // O(M) switches: 2M-ish.
    EXPECT_LT(inst.switches, 2ull * inst.n_modules);
    EXPECT_EQ(inst.request_hops, 3u * static_cast<std::uint32_t>(util::ilog2_ceil(n)) + 1);
  }
}

TEST(Schemes, UwMpcRedundancyGrowsWithN) {
  const auto small = make_scheme({.kind = SchemeKind::kUwMpc, .n = 64});
  const auto large = make_scheme({.kind = SchemeKind::kUwMpc, .n = 4096});
  EXPECT_GT(large.r, small.r);
  EXPECT_EQ(small.n_modules, 64u);  // M = n: the MPC constraint
  EXPECT_EQ(large.n_modules, 4096u);
}

TEST(Schemes, LppUsesLogRedundancyOnNModules) {
  const auto inst = make_scheme({.kind = SchemeKind::kLppMot, .n = 64});
  EXPECT_EQ(inst.n_modules, 64u);
  EXPECT_GT(inst.r, 7u);  // log-ish redundancy at m = 4096
  EXPECT_GT(inst.switches, 0u);
}

TEST(Schemes, CrossbarPaysSwitchesForGranularity) {
  const auto hp = make_scheme({.kind = SchemeKind::kHpMot, .n = 64});
  const auto xbar = make_scheme({.kind = SchemeKind::kCrossbar, .n = 64});
  EXPECT_EQ(xbar.r, hp.r);              // same constant redundancy
  EXPECT_GT(xbar.switches, hp.switches);  // O(nM) vs O(M)
}

TEST(Schemes, DmmpcHonorsEpsilon) {
  const auto coarse =
      make_scheme({.kind = SchemeKind::kDmmpc, .n = 256, .eps = 0.5});
  const auto fine =
      make_scheme({.kind = SchemeKind::kDmmpc, .n = 256, .eps = 1.5});
  EXPECT_LT(coarse.n_modules, fine.n_modules);
  EXPECT_GE(coarse.r, fine.r);  // finer granularity => no more copies
}

// ------------------------------------------------------- MOT engine -----

TEST(MotEngine, EveryRequestReachesThreshold) {
  auto inst = make_scheme({.kind = SchemeKind::kHpMot, .n = 32});
  const auto reqs = distinct_requests(32, inst.m, 3);
  const auto result = run(*inst.engine, reqs);
  ASSERT_EQ(result.accessed_mask.size(), reqs.size());
  for (const auto mask : result.accessed_mask) {
    EXPECT_GE(static_cast<std::uint32_t>(__builtin_popcountll(mask)), inst.c);
  }
  EXPECT_GT(result.time, 0u);
  EXPECT_GE(result.work, static_cast<std::uint64_t>(inst.c) * reqs.size());
}

TEST(MotEngine, TimeAtLeastOneRoundTrip) {
  auto inst = make_scheme({.kind = SchemeKind::kHpMot, .n = 32});
  const std::vector<VarRequest> reqs = {{VarId(5), ProcId(0)}};
  const auto result = run(*inst.engine, reqs);
  EXPECT_GE(result.time, 2 * inst.request_hops - 1);
}

TEST(MotEngine, DeterministicAcrossRuns) {
  auto inst = make_scheme({.kind = SchemeKind::kHpMot, .n = 64});
  const auto reqs = distinct_requests(64, inst.m, 7);
  const auto a = run(*inst.engine, reqs);
  const auto b = run(*inst.engine, reqs);
  EXPECT_EQ(a.time, b.time);
  EXPECT_EQ(a.work, b.work);
  EXPECT_EQ(a.accessed_mask, b.accessed_mask);
}

TEST(MotEngine, EmptyStepIsFree) {
  auto inst = make_scheme({.kind = SchemeKind::kHpMot, .n = 16});
  const auto result = run(*inst.engine, {});
  EXPECT_EQ(result.time, 0u);
  EXPECT_EQ(result.work, 0u);
}

TEST(MotEngine, LcaTurnaroundNoSlowerOnAverage) {
  const auto reqs_seed = 9;
  auto via_root = make_scheme({.kind = SchemeKind::kHpMot, .n = 64});
  auto via_lca = make_scheme(
      {.kind = SchemeKind::kHpMot, .n = 64, .lca_turnaround = true});
  const auto reqs = distinct_requests(64, via_root.m, reqs_seed);
  const auto t_root = run(*via_root.engine, reqs).time;
  const auto t_lca = run(*via_lca.engine, reqs).time;
  EXPECT_LE(t_lca, t_root + t_root / 4);  // allow scheduling noise
}

TEST(MotEngine, AllThreeSchemesComplete) {
  for (const auto kind :
       {SchemeKind::kHpMot, SchemeKind::kLppMot, SchemeKind::kCrossbar}) {
    auto inst = make_scheme({.kind = kind, .n = 16});
    const auto reqs = distinct_requests(16, inst.m, 11);
    const auto result = run(*inst.engine, reqs);
    for (const auto mask : result.accessed_mask) {
      EXPECT_GE(static_cast<std::uint32_t>(__builtin_popcountll(mask)),
                inst.c)
          << to_string(kind);
    }
  }
}

TEST(MotEngine, Stage1BoundsLiveSet) {
  auto inst = make_scheme({.kind = SchemeKind::kHpMot, .n = 128});
  const auto reqs = distinct_requests(128, inst.m, 13);
  const auto result = run(*inst.engine, reqs);
  EXPECT_LE(result.stats.live_after_stage1, 128u / inst.r + 1);
}

/// A batch whose requesters repeat: every fourth request reuses the
/// previous request's processor (the last one wins its stage-1 turn).
std::vector<VarRequest> duplicate_requester_batch(std::uint32_t n,
                                                  std::uint64_t m,
                                                  std::uint64_t seed) {
  auto reqs = distinct_requests(n / 2, m, seed);
  for (std::size_t i = 3; i < reqs.size(); i += 4) {
    reqs[i].requester = reqs[i - 1].requester;
  }
  return reqs;
}

/// A batch with requesters at and beyond n: some fall in the last
/// cluster's padding (n <= p < clusters * cluster_size), some far past it.
std::vector<VarRequest> overflow_requester_batch(std::uint32_t n,
                                                 std::uint64_t m,
                                                 std::uint64_t seed) {
  auto reqs = distinct_requests(n / 4 + 3, m, seed);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const auto k = static_cast<std::uint32_t>(i);
    if (i % 3 == 1) {
      reqs[i].requester = ProcId(n + k % 3);
    } else if (i % 3 == 2) {
      reqs[i].requester = ProcId(5 * n + k);
    }
  }
  return reqs;
}

void fold_result(testing::Fnv64& digest, const majority::EngineResult& r) {
  digest.add(r.time);
  digest.add(r.work);
  digest.add(r.accessed_mask.size());
  for (const auto mask : r.accessed_mask) {
    digest.add(mask);
  }
  digest.add(r.stats.phases);
  digest.add(r.stats.stage1_phases);
  digest.add(r.stats.stage2_phases);
  digest.add(r.stats.live_per_phase.size());
  for (const auto live : r.stats.live_per_phase) {
    digest.add(live);
  }
  digest.add(r.stats.live_after_stage1);
  digest.add(r.stats.max_queue);
}

// Bit-identity pin for the cycle-accurate engines: the constant was
// computed with the original allocating engine and hash-map router, so
// a rewrite must reproduce every EngineResult field of every step. One
// engine serves several batch shapes in turn, so scratch reused across
// steps is covered too.
TEST(MotEngine, GoldenDigestAllPlacements) {
  struct Case {
    SchemeKind kind;
    bool lca;
  };
  testing::Fnv64 digest;
  for (const auto& [kind, lca] :
       {Case{SchemeKind::kHpMot, false}, Case{SchemeKind::kHpMot, true},
        Case{SchemeKind::kLppMot, false}, Case{SchemeKind::kCrossbar, false}}) {
    for (const std::uint32_t n : {16u, 64u, 256u}) {
      auto inst = make_scheme({.kind = kind, .n = n, .lca_turnaround = lca});
      const auto full = distinct_requests(n, inst.m, n + 1);
      fold_result(digest, run(*inst.engine, full));
      fold_result(digest,
                  run(*inst.engine, duplicate_requester_batch(n, inst.m, n + 2)));
      fold_result(digest,
                  run(*inst.engine, overflow_requester_batch(n, inst.m, n + 3)));
      fold_result(digest, run(*inst.engine, full));
    }
  }
  auto prom = make_scheme(
      {.kind = SchemeKind::kHpMot, .n = 64, .prom_lookup = true});
  fold_result(digest, run(*prom.engine, distinct_requests(64, prom.m, 5)));
  fold_result(digest,
              run(*prom.engine, duplicate_requester_batch(64, prom.m, 6)));
  fold_result(digest,
              run(*prom.engine, overflow_requester_batch(64, prom.m, 7)));
  digest.add(dynamic_cast<const MotEngine&>(*prom.engine).prom_cycles());
  EXPECT_EQ(digest.value(), 0xC1A545AFCB117048ULL);
}

// A phase budget below one round trip completes nothing in stage 1, so
// stage 2 must widen the budget until phases deliver again.
TEST(MotEngine, TightPhaseBudgetWidensAndTerminates) {
  auto inst = make_scheme({.kind = SchemeKind::kHpMot, .n = 16});
  MotEngineConfig cfg;
  cfg.scheme = MotScheme::kHpLeaves;
  cfg.n_processors = 16;
  cfg.c = inst.c;
  cfg.cluster_size = inst.r;
  cfg.phase_budget_cycles = 3;
  MotEngine tight(inst.map, cfg);
  ASSERT_LT(cfg.phase_budget_cycles, 2 * tight.request_hops() - 1);
  const auto reqs = distinct_requests(16, inst.m, 21);
  const auto a = run(tight, reqs);
  const auto b = run(tight, reqs);
  ASSERT_EQ(a.accessed_mask.size(), reqs.size());
  for (const auto mask : a.accessed_mask) {
    EXPECT_GE(static_cast<std::uint32_t>(std::popcount(mask)), inst.c);
  }
  EXPECT_GT(a.stats.stage2_phases, 0u);
  EXPECT_EQ(a.time, b.time);
  EXPECT_EQ(a.work, b.work);
  EXPECT_EQ(a.accessed_mask, b.accessed_mask);
  EXPECT_EQ(a.stats.live_per_phase, b.stats.live_per_phase);
  // Every request is still alive after stage 1: nothing fit the budget.
  EXPECT_EQ(a.stats.live_after_stage1, reqs.size());
  EXPECT_GT(a.time, run(*inst.engine, reqs).time);
}

// ---------------------------------------------------------- driver ------

TEST(Driver, StressAggregatesAllFamilies) {
  SimulationPipeline pipeline({.kind = SchemeKind::kDmmpc, .n = 64});
  const auto result =
      pipeline.run_stress({.steps_per_family = 3, .seed = 21});
  // 3 families x 3 steps + 3 adversarial steps.
  EXPECT_EQ(result.steps, 12u);
  EXPECT_GT(result.time.mean(), 0.0);
  EXPECT_GT(result.work.mean(), 0.0);
  EXPECT_DOUBLE_EQ(result.storage_factor,
                   static_cast<double>(pipeline.scheme().r));
  EXPECT_GT(result.redundancy_weighted_cost(), result.time.mean());
}

TEST(Driver, StressShardsAcrossTrialsDeterministically) {
  SimulationPipeline pipeline({.kind = SchemeKind::kDmmpc, .n = 64});
  const auto one = pipeline.run_stress(
      {.steps_per_family = 2, .seed = 5, .trials = 3});
  const auto two = pipeline.run_stress(
      {.steps_per_family = 2, .seed = 5, .trials = 3});
  // 3 trials x (3 families x 2 steps + 2 adversarial).
  EXPECT_EQ(one.steps, 24u);
  EXPECT_EQ(one.steps, two.steps);
  EXPECT_DOUBLE_EQ(one.time.mean(), two.time.mean());
  EXPECT_DOUBLE_EQ(one.work.mean(), two.work.mean());
}

TEST(Driver, StressUsesKnownHashPreimageAttackForMaplessSchemes) {
  SimulationPipeline pipeline({.kind = SchemeKind::kHashed, .n = 64});
  const auto result =
      pipeline.run_stress({.steps_per_family = 3, .seed = 21});
  // No memory map, but the hashed baseline knows its own hash: 3
  // families x 3 steps PLUS 3 known-hash preimage batches.
  EXPECT_EQ(result.steps, 12u);
  EXPECT_DOUBLE_EQ(result.storage_factor, 1.0);

  // The attack itself: every returned variable collides on one module,
  // so the batch costs a full serialization (time ~ batch size).
  const auto& memory = *pipeline.scheme().memory;
  const auto vars = memory.adversarial_vars(64, 99);
  ASSERT_EQ(vars.size(), 64u);
  std::unordered_set<std::uint32_t> distinct;
  for (const auto var : vars) {
    distinct.insert(var.value());
  }
  EXPECT_EQ(distinct.size(), 64u);
  pram::AccessBatch batch;
  for (std::uint32_t i = 0; i < vars.size(); ++i) {
    batch.push_back({ProcId(i), pram::AccessOp::kRead, vars[i], 0});
  }
  const auto cost = pipeline.run_batch(batch);
  EXPECT_EQ(cost.time, 64u);  // one module serves all 64 requests serially
}

// ------------------------------------- end-to-end, all schemes ----------

struct EndToEndCase {
  SchemeKind kind;
  const char* name;
};

class EndToEndTest : public ::testing::TestWithParam<EndToEndCase> {};

TEST_P(EndToEndTest, PrefixSumMatchesIdealPram) {
  const std::uint32_t n = 16;
  auto spec_ideal = pram::programs::prefix_sum(n);
  auto spec_sim = pram::programs::prefix_sum(n);

  pram::MachineConfig cfg;
  cfg.n_processors = n;
  cfg.m_shared_cells = spec_ideal.m_required;
  cfg.policy = pram::ConflictPolicy::kErew;

  pram::Machine ideal(cfg, std::move(spec_ideal.program));
  SchemeSpec scheme{.kind = GetParam().kind,
                    .n = n,
                    .seed = 5,
                    .min_vars = spec_sim.m_required};
  pram::Machine simulated(cfg, std::move(spec_sim.program),
                          make_memory(scheme));

  util::Rng rng(1234);
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto v = static_cast<pram::Word>(rng.below(100));
    ideal.poke_shared(VarId(i), v);
    simulated.poke_shared(VarId(i), v);
  }
  const auto a = ideal.run();
  const auto b = simulated.run();
  ASSERT_TRUE(a.completed());
  ASSERT_TRUE(b.completed()) << GetParam().name;
  EXPECT_EQ(a.steps, b.steps);
  if (GetParam().kind != SchemeKind::kHashed) {
    // Hashed single-copy memory charges only its max module load, which
    // can undercut the flat memory's 1-per-step on access-free steps.
    EXPECT_GT(b.mem_time, a.mem_time) << "simulation must cost time";
  }
  EXPECT_GT(b.mem_time, 0u);
  for (std::uint32_t i = 0; i < n; ++i) {
    EXPECT_EQ(ideal.shared(VarId(i)), simulated.shared(VarId(i)))
        << GetParam().name << " cell " << i;
  }
}

TEST_P(EndToEndTest, OddEvenSortMatchesIdealPram) {
  const std::uint32_t n = 8;
  auto spec_ideal = pram::programs::odd_even_sort(n);
  auto spec_sim = pram::programs::odd_even_sort(n);

  pram::MachineConfig cfg;
  cfg.n_processors = n;
  cfg.m_shared_cells = spec_ideal.m_required;
  cfg.policy = pram::ConflictPolicy::kErew;

  pram::Machine ideal(cfg, std::move(spec_ideal.program));
  SchemeSpec scheme{.kind = GetParam().kind,
                    .n = n,
                    .seed = 6,
                    .min_vars = spec_sim.m_required};
  pram::Machine simulated(cfg, std::move(spec_sim.program),
                          make_memory(scheme));
  util::Rng rng(99);
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto v = static_cast<pram::Word>(rng.below(50));
    ideal.poke_shared(VarId(i), v);
    simulated.poke_shared(VarId(i), v);
  }
  ASSERT_TRUE(ideal.run().completed());
  ASSERT_TRUE(simulated.run(2'000'000).completed()) << GetParam().name;
  for (std::uint32_t i = 0; i < n; ++i) {
    EXPECT_EQ(ideal.shared(VarId(i)), simulated.shared(VarId(i)))
        << GetParam().name << " cell " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, EndToEndTest,
    ::testing::Values(EndToEndCase{SchemeKind::kHpMot, "hp_mot"},
                      EndToEndCase{SchemeKind::kDmmpc, "dmmpc"},
                      EndToEndCase{SchemeKind::kUwMpc, "uw_mpc"},
                      EndToEndCase{SchemeKind::kLppMot, "lpp_mot"},
                      EndToEndCase{SchemeKind::kCrossbar, "crossbar"},
                      EndToEndCase{SchemeKind::kIda, "ida"},
                      EndToEndCase{SchemeKind::kHashed, "hashed"}),
    [](const ::testing::TestParamInfo<EndToEndCase>& param_info) {
      return param_info.param.name;
    });

TEST(EndToEnd, CrewListRankOnHpMot) {
  // CREW program (concurrent reads combined before the protocol runs).
  const std::uint32_t n = 16;
  auto spec_ideal = pram::programs::list_rank(n);
  auto spec_sim = pram::programs::list_rank(n);
  pram::MachineConfig cfg;
  cfg.n_processors = n;
  cfg.m_shared_cells = spec_ideal.m_required;
  cfg.policy = pram::ConflictPolicy::kCrew;
  pram::Machine ideal(cfg, std::move(spec_ideal.program));
  pram::Machine simulated(
      cfg, std::move(spec_sim.program),
      make_memory({.kind = SchemeKind::kHpMot,
                   .n = n,
                   .seed = 8,
                   .min_vars = spec_sim.m_required}));
  util::Rng rng(7);
  const auto order = rng.permutation(n);
  for (std::uint32_t pos = 0; pos < n; ++pos) {
    const auto node = order[pos];
    const auto succ = pos + 1 < n ? order[pos + 1] : node;
    for (auto* machine : {&ideal, &simulated}) {
      machine->poke_shared(VarId(node), succ);
      machine->poke_shared(VarId(n + node), pos + 1 < n ? 1 : 0);
    }
  }
  ASSERT_TRUE(ideal.run().completed());
  ASSERT_TRUE(simulated.run().completed());
  for (std::uint32_t i = 0; i < 2 * n; ++i) {
    EXPECT_EQ(ideal.shared(VarId(i)), simulated.shared(VarId(i))) << i;
  }
}

}  // namespace
}  // namespace pramsim::core
