// Tests for the P-ROM address-translation feature (paper conclusion).
#include <gtest/gtest.h>

#include <set>
#include <span>

#include "core/driver.hpp"
#include "core/mot_engine.hpp"
#include "core/prom.hpp"
#include "core/schemes.hpp"
#include "pram/machine.hpp"
#include "pram/programs.hpp"
#include "util/rng.hpp"

namespace pramsim::core {
namespace {

/// Schedule one step on `engine` into a fresh result.
majority::EngineResult run(majority::AccessEngine& engine,
                           std::span<const majority::VarRequest> reqs) {
  majority::EngineResult result;
  engine.run_step_into(reqs, result);
  return result;
}

TEST(Prom, StorageAccounting) {
  // n=64, m=4096, r=7, M=4096: entry = 7*(12+1) = 91 bits.
  const auto bits = map_table_bits(64, 4096, 7, 4096);
  EXPECT_EQ(bits.per_processor, 4096u * 91u);
  EXPECT_EQ(bits.local_total, 64u * 4096u * 91u);
  EXPECT_EQ(bits.prom_total, bits.per_processor);
  EXPECT_DOUBLE_EQ(bits.reduction_factor, 64.0);
}

TEST(Prom, HomeModulesAreUniformish) {
  std::set<std::uint32_t> seen;
  for (std::uint32_t v = 0; v < 4096; ++v) {
    const auto home = prom_home_module(VarId(v), 256);
    ASSERT_LT(home.value(), 256u);
    seen.insert(home.value());
  }
  EXPECT_GT(seen.size(), 250u);  // nearly all modules host entries
}

TEST(Prom, HomeModuleDeterministic) {
  for (std::uint32_t v = 0; v < 100; ++v) {
    EXPECT_EQ(prom_home_module(VarId(v), 1024),
              prom_home_module(VarId(v), 1024));
  }
}

TEST(Prom, LookupPhaseAddsTimeNotSemantics) {
  const std::uint32_t n = 32;
  auto base = make_scheme({.kind = SchemeKind::kHpMot, .n = n, .seed = 3});
  auto prom = make_scheme(
      {.kind = SchemeKind::kHpMot, .n = n, .seed = 3, .prom_lookup = true});
  util::Rng rng(5);
  const auto vars = rng.sample_without_replacement(base.m, n);
  std::vector<majority::VarRequest> reqs;
  for (std::uint32_t i = 0; i < n; ++i) {
    reqs.push_back({VarId(static_cast<std::uint32_t>(vars[i])), ProcId(i)});
  }
  const auto rb = run(*base.engine, reqs);
  const auto rp = run(*prom.engine, reqs);
  // Same copies accessed (protocol semantics unchanged)...
  EXPECT_EQ(rb.accessed_mask, rp.accessed_mask);
  // ...but the lookup phase costs strictly positive extra cycles.
  EXPECT_GT(rp.time, rb.time);
  const auto* engine = dynamic_cast<const MotEngine*>(prom.engine);
  ASSERT_NE(engine, nullptr);
  EXPECT_GT(engine->prom_cycles(), 0u);
  EXPECT_EQ(rp.time - rb.time, engine->prom_cycles());
}

TEST(Prom, LookupOverheadAtLeastOneRoundTrip) {
  auto prom = make_scheme(
      {.kind = SchemeKind::kHpMot, .n = 16, .seed = 7, .prom_lookup = true});
  const std::vector<majority::VarRequest> reqs = {{VarId(9), ProcId(0)}};
  const auto result = run(*prom.engine, reqs);
  const auto* engine = dynamic_cast<const MotEngine*>(prom.engine);
  ASSERT_NE(engine, nullptr);
  EXPECT_GE(engine->prom_cycles(), 2 * engine->request_hops() - 1);
  EXPECT_GT(result.time, 0u);
}

TEST(Prom, EndToEndProgramStillCorrect) {
  const std::uint32_t n = 16;
  auto spec = pram::programs::prefix_sum(n);
  pram::MachineConfig cfg{.n_processors = n,
                          .m_shared_cells = spec.m_required,
                          .policy = pram::ConflictPolicy::kErew};
  pram::Machine machine(cfg, std::move(spec.program),
                        make_memory({.kind = SchemeKind::kHpMot,
                                     .n = n,
                                     .seed = 8,
                                     .min_vars = spec.m_required,
                                     .prom_lookup = true}));
  for (std::uint32_t i = 0; i < n; ++i) {
    machine.poke_shared(VarId(i), 1);
  }
  ASSERT_TRUE(machine.run().completed());
  for (std::uint32_t i = 0; i < n; ++i) {
    EXPECT_EQ(machine.shared(VarId(i)), static_cast<pram::Word>(i + 1));
  }
}

TEST(Prom, WorksOnCrossbarAndLpp) {
  for (const auto kind : {SchemeKind::kCrossbar, SchemeKind::kLppMot}) {
    auto inst = make_scheme(
        {.kind = kind, .n = 16, .seed = 9, .prom_lookup = true});
    util::Rng rng(11);
    const auto vars = rng.sample_without_replacement(inst.m, 16);
    std::vector<majority::VarRequest> reqs;
    for (std::uint32_t i = 0; i < 16; ++i) {
      reqs.push_back({VarId(static_cast<std::uint32_t>(vars[i])), ProcId(i)});
    }
    const auto result = run(*inst.engine, reqs);
    for (const auto mask : result.accessed_mask) {
      EXPECT_GE(static_cast<std::uint32_t>(__builtin_popcountll(mask)),
                inst.c)
          << to_string(kind);
    }
  }
}

}  // namespace
}  // namespace pramsim::core
