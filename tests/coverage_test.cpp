// Coverage-widening tests for corners the module test files don't reach:
// host parallelism helpers, greedy-vs-exact adversarial coverage, edge-key
// encodings, full disassembler coverage, table/CSV formatting edges, and
// scheme-factory edge configurations.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <vector>

#include "core/schemes.hpp"
#include "memmap/expansion.hpp"
#include "memmap/memory_map.hpp"
#include "network/paths.hpp"
#include "network/topology.hpp"
#include "pram/instruction.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace pramsim {
namespace {

// ----------------------------- parallel_for -----------------------------

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> counts(1000);
  util::parallel_for(0, 1000, [&](std::size_t i) { ++counts[i]; });
  for (const auto& c : counts) {
    EXPECT_EQ(c.load(), 1);
  }
}

TEST(ParallelFor, EmptyAndSingleRanges) {
  int calls = 0;
  util::parallel_for(5, 5, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  util::parallel_for(7, 8, [&](std::size_t i) {
    EXPECT_EQ(i, 7u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, MatchesSerialAccumulation) {
  std::vector<std::uint64_t> parallel_out(512, 0);
  std::vector<std::uint64_t> serial_out(512, 0);
  auto f = [](std::size_t i) { return (i * 2654435761ULL) >> 7; };
  util::parallel_for(0, 512,
                     [&](std::size_t i) { parallel_out[i] = f(i); });
  util::serial_for(0, 512, [&](std::size_t i) { serial_out[i] = f(i); });
  EXPECT_EQ(parallel_out, serial_out);
}

TEST(ParallelFor, WorkerCountBounded) {
  EXPECT_EQ(util::parallel_workers(1), 1u);
  EXPECT_GE(util::parallel_workers(10'000), 1u);
  EXPECT_LE(util::parallel_workers(10'000), 1024u);
}

// -------------------- greedy vs exact adversarial coverage --------------

TEST(Expansion, GreedyUpperBoundsExactOnManyInstances) {
  util::Rng rng(8);
  memmap::TableMap map(128, 24, 5, 99);
  for (int trial = 0; trial < 25; ++trial) {
    std::vector<VarId> vars;
    const auto picks = rng.sample_without_replacement(128, 4);
    vars.reserve(picks.size());
    for (const auto p : picks) {
      vars.emplace_back(static_cast<std::uint32_t>(p));
    }
    const auto exact = memmap::exact_min_coverage(map, 3, vars);
    const auto greedy = memmap::greedy_min_coverage(map, 3, vars);
    EXPECT_GE(greedy, exact) << "trial " << trial;
    // Greedy should be close: within 2x on these tiny instances.
    EXPECT_LE(greedy, 2 * exact) << "trial " << trial;
  }
}

TEST(Expansion, MoreRefineRoundsNeverWorsenTheBound) {
  memmap::TableMap map(256, 32, 7, 5);
  util::Rng rng(3);
  const auto picks = rng.sample_without_replacement(256, 5);
  std::vector<VarId> vars;
  for (const auto p : picks) {
    vars.emplace_back(static_cast<std::uint32_t>(p));
  }
  const auto one = memmap::greedy_min_coverage(map, 4, vars, 1);
  const auto five = memmap::greedy_min_coverage(map, 4, vars, 5);
  EXPECT_LE(five, one);
}

// ------------------------------ edge keys --------------------------------

TEST(EdgeKey, DistinctAcrossKindsTreesPositionsDirections) {
  std::set<std::uint64_t> keys;
  for (const auto kind : {net::TreeKind::kRow, net::TreeKind::kCol}) {
    for (std::uint32_t tree = 0; tree < 8; ++tree) {
      for (std::uint32_t pos = 2; pos < 16; ++pos) {
        for (const auto dir : {net::Direction::kDown, net::Direction::kUp}) {
          keys.insert(net::tree_edge(kind, tree, pos, dir).raw);
        }
      }
    }
  }
  for (std::uint32_t module = 0; module < 64; ++module) {
    keys.insert(net::module_port(module).raw);
  }
  EXPECT_EQ(keys.size(), 2u * 8 * 14 * 2 + 64);
}

TEST(EdgeKey, PathsNeverContainDuplicateEdges) {
  // A single request path must not reuse a directed edge (it would
  // self-collide in the router).
  util::Rng rng(13);
  for (int trial = 0; trial < 100; ++trial) {
    const std::uint32_t S = 32;
    const auto path = net::hp_request_path(
        S, static_cast<std::uint32_t>(rng.below(S)),
        static_cast<std::uint32_t>(rng.below(S)),
        static_cast<std::uint32_t>(rng.below(S)),
        /*lca_turnaround=*/trial % 2 == 0);
    std::set<std::uint64_t> seen;
    for (const auto edge : path) {
      EXPECT_TRUE(seen.insert(edge.raw).second) << "trial " << trial;
    }
  }
}

// ---------------------------- disassembler -------------------------------

TEST(Disassembler, CoversEveryOpcode) {
  using pram::Instruction;
  using pram::Opcode;
  for (int op = 0; op <= static_cast<int>(Opcode::kNprocs); ++op) {
    Instruction ins;
    ins.op = static_cast<Opcode>(op);
    ins.r1 = 1;
    ins.r2 = 2;
    ins.r3 = 3;
    ins.imm = 7;
    const auto text = pram::disassemble(ins);
    EXPECT_FALSE(text.empty());
    EXPECT_EQ(text.find("???"), std::string::npos) << "opcode " << op;
  }
}

TEST(Disassembler, SharedAccessPredicate) {
  EXPECT_TRUE(pram::is_shared_access(pram::Opcode::kReadShared));
  EXPECT_TRUE(pram::is_shared_access(pram::Opcode::kWriteShared));
  EXPECT_FALSE(pram::is_shared_access(pram::Opcode::kLoadLocal));
  EXPECT_FALSE(pram::is_shared_access(pram::Opcode::kAdd));
}

// ------------------------------- tables ----------------------------------

TEST(TableEdge, NegativeAndZeroValues) {
  util::Table t({"a", "b"});
  t.add_row({std::int64_t{-42}, 0.0});
  const auto s = t.to_string(2);
  EXPECT_NE(s.find("-42"), std::string::npos);
  EXPECT_NE(s.find("0.00"), std::string::npos);
}

TEST(TableEdge, WideStringsAlignLeft) {
  util::Table t({"name", "x"});
  t.add_row({std::string("short"), std::int64_t{1}});
  t.add_row({std::string("a-much-longer-name"), std::int64_t{2}});
  const auto s = t.to_string();
  // Both rows render and the header rule covers the widest cell.
  EXPECT_NE(s.find("a-much-longer-name"), std::string::npos);
  EXPECT_NE(s.find("short"), std::string::npos);
}

TEST(TableEdge, CsvEscapesNothingButRoundTripsNumbers) {
  util::Table t({"v"});
  t.add_row({3.14159});
  EXPECT_NE(t.to_csv(5).find("3.14159"), std::string::npos);
}

// ------------------------- scheme-factory edges --------------------------

TEST(SchemeFactoryEdge, MinVarsExpandsTheMap) {
  const auto inst = core::make_scheme(
      {.kind = core::SchemeKind::kDmmpc, .n = 16, .min_vars = 100'000});
  EXPECT_GE(inst.m, 100'000u);
  EXPECT_EQ(inst.engine->map().num_vars(), inst.m);
}

TEST(SchemeFactoryEdge, SmallestSupportedMachine) {
  for (const auto kind :
       {core::SchemeKind::kHpMot, core::SchemeKind::kLppMot,
        core::SchemeKind::kCrossbar, core::SchemeKind::kDmmpc,
        core::SchemeKind::kUwMpc, core::SchemeKind::kAltBdn}) {
    const auto inst = core::make_scheme({.kind = kind, .n = 4, .seed = 2});
    EXPECT_GE(inst.r, 1u) << core::to_string(kind);
    std::vector<majority::VarRequest> reqs = {{VarId(1), ProcId(0)},
                                              {VarId(2), ProcId(1)}};
    majority::EngineResult result;
    inst.engine->run_step_into(reqs, result);
    EXPECT_EQ(result.accessed_mask.size(), 2u) << core::to_string(kind);
  }
}

TEST(SchemeFactoryEdge, SeedChangesMapNotParameters) {
  const auto a = core::make_scheme(
      {.kind = core::SchemeKind::kHpMot, .n = 32, .seed = 1});
  const auto b = core::make_scheme(
      {.kind = core::SchemeKind::kHpMot, .n = 32, .seed = 2});
  EXPECT_EQ(a.r, b.r);
  EXPECT_EQ(a.n_modules, b.n_modules);
  // but the placements differ
  int same = 0;
  for (std::uint32_t v = 0; v < 100; ++v) {
    same += a.map->copies(VarId(v)) == b.map->copies(VarId(v)) ? 1 : 0;
  }
  EXPECT_LT(same, 5);
}

}  // namespace
}  // namespace pramsim
