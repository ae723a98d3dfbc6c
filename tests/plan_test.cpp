// The AccessPlan / PlanBuilder gate: the arena-backed plan must carry
// exactly the joins the serve path consumes (request union, read/write
// index maps, block groups), and MemorySystem::serve must stay
// value-equivalent to the ideal FlatMemory for every SchemeKind served
// the same plan stream, including wrapped in faults::FaultableMemory at
// fault rate 0.
//
// Per-read outage flags must reach ServeContext identically through
// serve() and the step() convenience entry (native schemes and the
// FaultableMemory wrapper).
#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <string>
#include <vector>

#include "core/driver.hpp"
#include "core/plan_builder.hpp"
#include "core/schemes.hpp"
#include "faults/fault_model.hpp"
#include "faults/faultable_memory.hpp"
#include "pram/serve_context.hpp"
#include "pram/trace.hpp"
#include "util/rng.hpp"

namespace pramsim {
namespace {

pram::AccessBatch mixed_batch() {
  pram::AccessBatch batch;
  batch.push_back({ProcId(0), pram::AccessOp::kRead, VarId(5), 0});
  batch.push_back({ProcId(3), pram::AccessOp::kWrite, VarId(5), 33});
  batch.push_back({ProcId(1), pram::AccessOp::kWrite, VarId(5), 11});
  batch.push_back({ProcId(2), pram::AccessOp::kRead, VarId(9), 0});
  batch.push_back({ProcId(4), pram::AccessOp::kWrite, VarId(2), 44});
  batch.push_back({ProcId(5), pram::AccessOp::kRead, VarId(9), 0});
  return batch;
}

TEST(PlanBuilder, PlanCarriesCombinedListsAndJoins) {
  pram::FlatMemory memory(16);
  core::PlanBuilder builder;
  const auto& plan = builder.build(mixed_batch(), memory);

  // Combined lists: reads in first-appearance order, CW-resolved writes.
  ASSERT_EQ(plan.reads.size(), 2u);
  EXPECT_EQ(plan.reads[0], VarId(5));
  EXPECT_EQ(plan.reads[1], VarId(9));
  ASSERT_EQ(plan.writes.size(), 2u);
  EXPECT_EQ(plan.writes[0].var, VarId(5));
  EXPECT_EQ(plan.writes[0].value, 11);  // lowest-id writer wins
  EXPECT_EQ(plan.writes[1].var, VarId(2));
  EXPECT_EQ(plan.writes[1].value, 44);

  // Request union: reads first, then write-only variables; ops/flags
  // reflect the combined accesses.
  ASSERT_EQ(plan.requests.size(), 3u);
  EXPECT_EQ(plan.requests[0].var, VarId(5));
  EXPECT_EQ(plan.requests[0].op, pram::AccessOp::kWrite);
  EXPECT_TRUE(plan.requests[0].is_read);
  EXPECT_EQ(plan.requests[1].var, VarId(9));
  EXPECT_EQ(plan.requests[1].op, pram::AccessOp::kRead);
  EXPECT_TRUE(plan.requests[1].is_read);
  EXPECT_EQ(plan.requests[2].var, VarId(2));
  EXPECT_EQ(plan.requests[2].op, pram::AccessOp::kWrite);
  EXPECT_FALSE(plan.requests[2].is_read);

  // Joins are mutually inverse.
  ASSERT_EQ(plan.read_request.size(), plan.reads.size());
  ASSERT_EQ(plan.write_request.size(), plan.writes.size());
  ASSERT_EQ(plan.request_write.size(), plan.requests.size());
  EXPECT_EQ(plan.read_request[0], 0u);
  EXPECT_EQ(plan.read_request[1], 1u);
  EXPECT_EQ(plan.write_request[0], 0u);
  EXPECT_EQ(plan.write_request[1], 2u);
  EXPECT_EQ(plan.request_write[0], 0u);
  EXPECT_EQ(plan.request_write[1], pram::AccessPlan::kNone);
  EXPECT_EQ(plan.request_write[2], 1u);

  // FlatMemory requests no grouping.
  EXPECT_FALSE(plan.grouped());

  // A read + write of one variable collapses to ONE request that
  // preserves the write, whichever access came first.
  pram::AccessBatch read_then_write;
  read_then_write.push_back({ProcId(0), pram::AccessOp::kRead, VarId(5), 0});
  read_then_write.push_back({ProcId(1), pram::AccessOp::kWrite, VarId(5), 1});
  read_then_write.push_back({ProcId(2), pram::AccessOp::kRead, VarId(9), 0});
  const auto& merged = builder.build(read_then_write, memory);
  ASSERT_EQ(merged.requests.size(), 2u);
  EXPECT_EQ(merged.requests[0].var, VarId(5));
  EXPECT_EQ(merged.requests[0].op, pram::AccessOp::kWrite);
  EXPECT_TRUE(merged.requests[0].is_read);
  EXPECT_EQ(merged.requests[1].var, VarId(9));
  EXPECT_EQ(merged.requests[1].op, pram::AccessOp::kRead);
  ASSERT_EQ(merged.writes.size(), 1u);
  EXPECT_EQ(merged.writes[0].value, 1);

  // Concurrent writers only: the lowest processor id wins.
  pram::AccessBatch writers;
  writers.push_back({ProcId(4), pram::AccessOp::kWrite, VarId(3), 40});
  writers.push_back({ProcId(2), pram::AccessOp::kWrite, VarId(3), 20});
  writers.push_back({ProcId(6), pram::AccessOp::kWrite, VarId(3), 60});
  const auto& resolved = builder.build(writers, memory);
  ASSERT_EQ(resolved.requests.size(), 1u);
  EXPECT_EQ(resolved.requests[0].op, pram::AccessOp::kWrite);
  EXPECT_FALSE(resolved.requests[0].is_read);
  ASSERT_EQ(resolved.writes.size(), 1u);
  EXPECT_EQ(resolved.writes[0].value, 20);

  // The owning-vector form combines identically.
  pram::AccessBatch mixed = mixed_batch();
  mixed.push_back({ProcId(6), pram::AccessOp::kRead, VarId(5), 0});
  const auto combined = builder.combine(mixed);
  ASSERT_EQ(combined.reads.size(), 2u);
  EXPECT_EQ(combined.reads[0], VarId(5));
  EXPECT_EQ(combined.reads[1], VarId(9));
  ASSERT_EQ(combined.writes.size(), 2u);
  EXPECT_EQ(combined.writes[0].var, VarId(5));
  EXPECT_EQ(combined.writes[0].value, 11);
}

TEST(PlanBuilder, GroupsMatchTargetKeysAndPartitionRequests) {
  auto memory = core::make_memory({.kind = core::SchemeKind::kIda,
                                   .n = 16,
                                   .seed = 5});
  ASSERT_TRUE(memory->wants_plan_groups());
  util::Rng rng(7);
  core::PlanBuilder builder;
  const auto batch = pram::make_batch(pram::TraceFamily::kUniform, 16,
                                      memory->size(), rng);
  const auto& plan = builder.build(batch, *memory);
  ASSERT_TRUE(plan.grouped());
  ASSERT_EQ(plan.group_offsets.size(), plan.num_groups() + 1);
  ASSERT_EQ(plan.group_requests.size(), plan.requests.size());
  EXPECT_EQ(plan.group_offsets.front(), 0u);
  EXPECT_EQ(plan.group_offsets.back(), plan.requests.size());
  std::vector<bool> seen(plan.requests.size(), false);
  for (std::size_t g = 0; g < plan.num_groups(); ++g) {
    if (g > 0) {
      EXPECT_LT(plan.group_keys[g - 1], plan.group_keys[g]);  // ascending
    }
    for (std::uint32_t i = plan.group_offsets[g];
         i < plan.group_offsets[g + 1]; ++i) {
      const std::uint32_t req = plan.group_requests[i];
      EXPECT_FALSE(seen[req]);  // a partition, not a cover
      seen[req] = true;
      EXPECT_EQ(memory->plan_group_of(plan.requests[req].var),
                plan.group_keys[g]);
      EXPECT_EQ(plan.request_group[req], g);
    }
  }
  for (const bool s : seen) {
    EXPECT_TRUE(s);
  }
}

TEST(PlanBuilder, ReusedBuilderMatchesFreshBuilder) {
  pram::FlatMemory memory(1 << 12);
  core::PlanBuilder reused;
  util::Rng rng(11);
  for (int round = 0; round < 20; ++round) {
    const auto batch = pram::make_batch(pram::TraceFamily::kUniform, 64,
                                        1 << 12, rng);
    const auto& plan = reused.build(batch, memory);
    core::PlanBuilder fresh;
    const auto& expected = fresh.build(batch, memory);
    ASSERT_EQ(plan.reads.size(), expected.reads.size()) << round;
    for (std::size_t i = 0; i < plan.reads.size(); ++i) {
      EXPECT_EQ(plan.reads[i], expected.reads[i]) << round;
    }
    ASSERT_EQ(plan.writes.size(), expected.writes.size()) << round;
    for (std::size_t i = 0; i < plan.writes.size(); ++i) {
      EXPECT_EQ(plan.writes[i].var, expected.writes[i].var) << round;
      EXPECT_EQ(plan.writes[i].value, expected.writes[i].value) << round;
    }
    ASSERT_EQ(plan.requests.size(), expected.requests.size()) << round;
  }
}

// The value-equivalence gate: for EVERY SchemeKind, serving random
// traffic through serve(plan) must produce the same read values and the
// same committed memory as the ideal FlatMemory served the same plan
// stream — including with the scheme wrapped in a FaultableMemory at
// fault rate 0.
class PlanServeTest : public ::testing::TestWithParam<core::SchemeKind> {};

void expect_serve_matches_flat(pram::MemorySystem& memory, std::uint32_t n,
                               const char* name) {
  const std::uint64_t m = memory.size();
  pram::FlatMemory flat(m);
  util::Rng rng(23);
  pram::ServeContext ctx;
  pram::ServeContext flat_ctx;
  core::PlanBuilder builder;
  for (int s = 0; s < 12; ++s) {
    const auto family = s % 2 == 0 ? pram::TraceFamily::kUniform
                                   : pram::TraceFamily::kPermutation;
    auto family_rng = rng.split();
    const auto batch = pram::make_batch(family, n, m, family_rng);
    const auto& plan = builder.build(batch, memory);
    std::vector<pram::Word> values(plan.reads.size());
    std::vector<pram::Word> flat_values(plan.reads.size());
    ctx.bind(values);
    memory.serve(plan, ctx);
    flat_ctx.bind(flat_values);
    flat.serve(plan, flat_ctx);
    for (std::size_t i = 0; i < plan.reads.size(); ++i) {
      ASSERT_EQ(values[i], flat_values[i])
          << name << " step " << s << " read " << i;
    }
  }
  for (std::uint64_t v = 0; v < m; ++v) {
    const VarId var(static_cast<std::uint32_t>(v));
    ASSERT_EQ(memory.peek(var), flat.peek(var)) << name << " cell " << v;
  }
}

TEST_P(PlanServeTest, ServeMatchesFlatMemoryBitExact) {
  const std::uint32_t n = 16;
  const core::SchemeSpec spec{.kind = GetParam(), .n = n, .seed = 5};
  auto memory = core::make_memory(spec);
  expect_serve_matches_flat(*memory, n, core::to_string(GetParam()));
}

TEST_P(PlanServeTest, ServeMatchesFlatMemoryUnderInertFaultWrapper) {
  const std::uint32_t n = 16;
  const core::SchemeSpec spec{.kind = GetParam(), .n = n, .seed = 5};
  const faults::FaultSpec inert{.seed = 77};
  ASSERT_TRUE(inert.inert());
  faults::FaultableMemory memory(core::make_memory(spec), inert);
  expect_serve_matches_flat(memory, n, core::to_string(GetParam()));
  EXPECT_EQ(memory.reliability().wrong_reads, 0u);
}

INSTANTIATE_TEST_SUITE_P(EverySchemeKind, PlanServeTest,
                         ::testing::ValuesIn(core::all_scheme_kinds()),
                         [](const ::testing::TestParamInfo<core::SchemeKind>&
                                info) {
                           std::string name = core::to_string(info.param);
                           for (auto& ch : name) {
                             if (!std::isalnum(
                                     static_cast<unsigned char>(ch))) {
                               ch = '_';
                             }
                           }
                           return name;
                         });

// Reads under erasure served through serve(plan, ctx) must be flagged
// exactly as the step() convenience entry reports them through
// flagged_reads() — for the native schemes AND through the
// FaultableMemory wrapper.
TEST(ServeContextFlags, ErasureFlagsIdenticalOnServeAndStepPaths) {
  const std::uint32_t n = 16;
  const faults::FaultSpec fault_spec{.seed = 99, .module_kill_rate = 0.6};
  for (const auto kind :
       {core::SchemeKind::kDmmpc, core::SchemeKind::kIda,
        core::SchemeKind::kHashed}) {
    const core::SchemeSpec spec{.kind = kind, .n = n, .seed = 5};
    // Native path: hooks installed directly on both instances.
    auto via_serve = core::make_memory(spec);
    auto via_step = core::make_memory(spec);
    const faults::FaultModel model(fault_spec, via_serve->num_modules());
    ASSERT_TRUE(via_serve->set_fault_hooks(&model));
    ASSERT_TRUE(via_step->set_fault_hooks(&model));

    util::Rng rng(41);
    pram::ServeContext ctx;
    core::PlanBuilder builder;
    std::uint64_t flagged_total = 0;
    for (int s = 0; s < 8; ++s) {
      const auto batch = pram::make_batch(pram::TraceFamily::kUniform, n,
                                          via_serve->size(), rng);
      const auto& plan = builder.build(batch, *via_serve);
      std::vector<pram::Word> serve_values(plan.reads.size());
      std::vector<pram::Word> step_values(plan.reads.size());
      ctx.bind(serve_values);
      via_serve->serve(plan, ctx);
      via_step->step(plan.reads, step_values, plan.writes);
      const auto step_flags = via_step->flagged_reads();
      ASSERT_EQ(ctx.flags().size(), step_flags.size())
          << core::to_string(kind) << " step " << s;
      for (std::size_t i = 0; i < step_flags.size(); ++i) {
        ASSERT_EQ(ctx.flags()[i] != 0, step_flags[i] != 0)
            << core::to_string(kind) << " step " << s << " read " << i;
        flagged_total += step_flags[i] != 0 ? 1 : 0;
      }
    }
    // A 60% module kill must flag something, or the test tests nothing.
    EXPECT_GT(flagged_total, 0u) << core::to_string(kind);
  }
}

TEST(ServeContextFlags, WrapperExposesFlagsThroughServeContext) {
  const std::uint32_t n = 16;
  const faults::FaultSpec fault_spec{.seed = 7, .module_kill_rate = 0.8};
  for (const auto kind :
       {core::SchemeKind::kDmmpc, core::SchemeKind::kHashed,
        core::SchemeKind::kRanade}) {
    const core::SchemeSpec spec{.kind = kind, .n = n, .seed = 5};
    faults::FaultableMemory via_serve(core::make_memory(spec), fault_spec);
    faults::FaultableMemory via_step(core::make_memory(spec), fault_spec);

    util::Rng rng(43);
    pram::ServeContext ctx;
    core::PlanBuilder builder;
    std::uint64_t flagged_total = 0;
    for (int s = 0; s < 8; ++s) {
      const auto batch = pram::make_batch(pram::TraceFamily::kUniform, n,
                                          via_serve.size(), rng);
      const auto& plan = builder.build(batch, via_serve);
      std::vector<pram::Word> serve_values(plan.reads.size());
      std::vector<pram::Word> step_values(plan.reads.size());
      ctx.bind(serve_values);
      via_serve.serve(plan, ctx);
      via_step.step(plan.reads, step_values, plan.writes);
      const auto step_flags = via_step.flagged_reads();
      ASSERT_EQ(ctx.flags().size(), step_flags.size());
      for (std::size_t i = 0; i < step_flags.size(); ++i) {
        ASSERT_EQ(ctx.flags()[i] != 0, step_flags[i] != 0)
            << core::to_string(kind) << " step " << s << " read " << i;
        flagged_total += step_flags[i] != 0 ? 1 : 0;
      }
    }
    EXPECT_GT(flagged_total, 0u) << core::to_string(kind);
  }
}

}  // namespace
}  // namespace pramsim
