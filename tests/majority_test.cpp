// Tests for the majority-rule protocol: copy store semantics, the
// two-stage scheduler, MajorityMemory consistency (including against an
// oracle under random operation streams), and failure injection.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <span>
#include <tuple>
#include <vector>

#include "majority/copy_store.hpp"
#include "majority/majority_memory.hpp"
#include "majority/scheduler.hpp"
#include "memmap/memory_map.hpp"
#include "memmap/params.hpp"
#include "pram/machine.hpp"
#include "pram/programs.hpp"
#include "util/rng.hpp"

namespace pramsim::majority {
namespace {

using memmap::HashedMap;
using memmap::TableMap;
using pram::VarWrite;
using pram::Word;

// ------------------------------------------------------- copy store -----

TEST(CopyStore, FreshestPicksMaxStamp) {
  CopyStore store(4, 5);
  store.write(VarId(1), 0, 10, 3);
  store.write(VarId(1), 1, 20, 7);
  store.write(VarId(1), 2, 30, 5);
  const auto best = store.freshest(VarId(1), 0b111);
  EXPECT_EQ(best.value, 20);
  EXPECT_EQ(best.stamp, 7u);
  // Restricting the mask to copies {0,2} hides the stamp-7 copy.
  EXPECT_EQ(store.freshest(VarId(1), 0b101).value, 30);
}

TEST(CopyStore, GroundTruthSpansAllCopies) {
  CopyStore store(2, 3);
  store.write(VarId(0), 2, 99, 11);
  EXPECT_EQ(store.ground_truth(VarId(0)).value, 99);
}

TEST(CopyStore, CorruptKeepsStamp) {
  CopyStore store(2, 3);
  store.write(VarId(0), 0, 5, 2);
  store.corrupt(VarId(0), 0, 666);
  EXPECT_EQ(store.at(VarId(0), 0).value, 666);
  EXPECT_EQ(store.at(VarId(0), 0).stamp, 2u);
}

// ------------------------------------------- region-granular store -----

TEST(CopyStore, VoteRegionUnanimousDissentAndNoMajority) {
  CopyStore store(16, 5, 4);
  const std::uint64_t all = (1ULL << 5) - 1;
  // Region 1 = vars [4, 8). Write every copy of every var identically.
  for (std::uint32_t v = 4; v < 8; ++v) {
    for (std::uint32_t c = 0; c < 5; ++c) {
      store.write(VarId(v), c, 100 + v, 7);
    }
  }
  std::uint32_t dissenting = 99;
  EXPECT_EQ(store.vote_region(1, all, &dissenting), 0);
  EXPECT_EQ(dissenting, 0u);
  // Early-exit flavor (no dissent pointer) agrees on the winner.
  EXPECT_EQ(store.vote_region(1, all), 0);

  // One copy dissents mid-region: still a 4-of-5 bytewise majority, and
  // the dissent count is exact.
  store.corrupt(VarId(6), 2, 31337);
  EXPECT_EQ(store.vote_region(1, all, &dissenting), 0);
  EXPECT_EQ(dissenting, 1u);
  // Masking the dissenter out restores unanimity among the live copies.
  EXPECT_EQ(store.vote_region(1, all & ~(1ULL << 2), &dissenting), 0);
  EXPECT_EQ(dissenting, 0u);
  // Masking copy 0 out instead shifts the winner to the lowest live copy.
  EXPECT_EQ(store.vote_region(1, all & ~1ULL, &dissenting), 1);
  EXPECT_EQ(dissenting, 1u);

  // Three of five copies each diverge to a distinct value: the two
  // agreeing survivors are below the strict majority of 3, so no copy's
  // whole region wins and callers must fall back to per-word vote().
  store.corrupt(VarId(5), 0, 1111);
  store.corrupt(VarId(7), 1, 2222);
  EXPECT_EQ(store.vote_region(1, all, &dissenting),
            CopyStore::kNoRegionMajority);
  // No survivors at all is also no-majority, never a {0,0} winner.
  EXPECT_EQ(store.vote_region(1, 0), CopyStore::kNoRegionMajority);
}

TEST(CopyStore, VoteRegionUntouchedRegionIsUnanimousZero) {
  CopyStore store(16, 5, 4);
  std::uint32_t dissenting = 99;
  // Lowest live copy represents the all-{0,0} region; nothing allocates.
  EXPECT_EQ(store.vote_region(2, 0b11100, &dissenting), 2);
  EXPECT_EQ(dissenting, 0u);
  EXPECT_EQ(store.touched_vars(), 0u);
}

TEST(CopyStore, CopyRegionRepairsWholeSlice) {
  CopyStore store(16, 3, 4);
  for (std::uint32_t v = 8; v < 12; ++v) {
    for (std::uint32_t c = 0; c < 3; ++c) {
      store.write(VarId(v), c, 500 + v, 9);
    }
  }
  store.corrupt(VarId(9), 2, 777);
  store.corrupt(VarId(11), 2, 888);
  const std::int32_t winner = store.vote_region(2, 0b111);
  ASSERT_EQ(winner, 0);
  store.copy_region(2, static_cast<std::uint32_t>(winner), 2);
  std::uint32_t dissenting = 99;
  EXPECT_EQ(store.vote_region(2, 0b111, &dissenting), 0);
  EXPECT_EQ(dissenting, 0u);
  EXPECT_EQ(store.at(VarId(9), 2).value, 509u);
  EXPECT_EQ(store.at(VarId(11), 2).stamp, 9u);
}

TEST(CopyStore, WidthOneAndWidthFourAgreeOnEveryQuery) {
  // Same write stream into a classic width-1 store and a width-4 store:
  // every per-word query (at / freshest / ground_truth / touched) must
  // agree — region granularity is storage layout, not semantics.
  CopyStore narrow(32, 3, 1);
  CopyStore wide(32, 3, 4);
  EXPECT_EQ(wide.num_regions(), 8u);
  util::Rng rng(17);
  for (int i = 0; i < 200; ++i) {
    const VarId var(static_cast<std::uint32_t>(rng.below(32)));
    const auto copy = static_cast<std::uint32_t>(rng.below(3));
    const auto value = static_cast<Word>(rng.below(1000));
    const std::uint64_t stamp = 1 + static_cast<std::uint64_t>(i) / 4;
    narrow.write(var, copy, value, stamp);
    wide.write(var, copy, value, stamp);
  }
  for (std::uint32_t v = 0; v < 32; ++v) {
    const VarId var(v);
    for (std::uint32_t c = 0; c < 3; ++c) {
      ASSERT_EQ(narrow.at(var, c).value, wide.at(var, c).value) << v;
      ASSERT_EQ(narrow.at(var, c).stamp, wide.at(var, c).stamp) << v;
    }
    EXPECT_EQ(narrow.freshest(var, 0b101).value,
              wide.freshest(var, 0b101).value);
    EXPECT_EQ(narrow.ground_truth(var).value, wide.ground_truth(var).value);
    EXPECT_EQ(narrow.ground_truth(var).stamp, wide.ground_truth(var).stamp);
  }
}

// -------------------------------------------------------- scheduler -----

SchedulerConfig config_for(std::uint32_t c, std::uint32_t n) {
  SchedulerConfig cfg;
  cfg.c = c;
  cfg.cluster_size = 2 * c - 1;
  cfg.n_processors = n;
  return cfg;
}

std::vector<VarRequest> distinct_requests(std::uint32_t count,
                                          std::uint64_t m, std::uint64_t seed) {
  util::Rng rng(seed);
  const auto vars = rng.sample_without_replacement(m, count);
  std::vector<VarRequest> reqs;
  reqs.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    reqs.push_back({VarId(static_cast<std::uint32_t>(vars[i])), ProcId(i)});
  }
  return reqs;
}

ScheduleResult schedule(const memmap::MemoryMap& map,
                        std::span<const VarRequest> reqs,
                        const SchedulerConfig& config) {
  ScheduleResult result;
  ScheduleScratch scratch;
  schedule_step_into(map, reqs, config, result, scratch);
  return result;
}

TEST(Scheduler, EveryRequestReachesThreshold) {
  const auto params = memmap::derive_params(64, 2.0, 1.0, 4.0);
  HashedMap map(params.m, params.n_modules, params.r, 5);
  const auto reqs = distinct_requests(64, params.m, 7);
  const auto result = schedule(map, reqs, config_for(params.c, 64));
  ASSERT_EQ(result.accessed_mask.size(), 64u);
  for (const auto mask : result.accessed_mask) {
    EXPECT_GE(static_cast<std::uint32_t>(__builtin_popcountll(mask)),
              params.c);
  }
  EXPECT_GT(result.rounds, 0u);
  EXPECT_GE(result.total_copy_accesses,
            static_cast<std::uint64_t>(params.c) * 64);
}

TEST(Scheduler, EmptyBatchIsFree) {
  const auto params = memmap::derive_params(64, 2.0, 1.0, 4.0);
  HashedMap map(params.m, params.n_modules, params.r, 5);
  const auto result = schedule(map, {}, config_for(params.c, 64));
  EXPECT_EQ(result.rounds, 0u);
  EXPECT_EQ(result.total_copy_accesses, 0u);
}

TEST(Scheduler, SingleRequestTakesCRoundsWorstCaseOne) {
  // One variable, r copies in distinct modules: every round all unaccessed
  // copies are probed, each module serves its probe, so c accesses land in
  // round one.
  const auto params = memmap::derive_params(64, 2.0, 1.0, 4.0);
  HashedMap map(params.m, params.n_modules, params.r, 5);
  const std::vector<VarRequest> reqs = {{VarId(3), ProcId(0)}};
  const auto result = schedule(map, reqs, config_for(params.c, 64));
  EXPECT_EQ(result.rounds, 1u);
  EXPECT_GE(result.total_copy_accesses, params.c);
}

TEST(Scheduler, DeterministicAcrossRuns) {
  const auto params = memmap::derive_params(128, 2.0, 1.0, 4.0);
  HashedMap map(params.m, params.n_modules, params.r, 5);
  const auto reqs = distinct_requests(128, params.m, 11);
  // The second run reuses the first one's result and scratch buffers.
  ScheduleResult a;
  ScheduleResult b;
  ScheduleScratch scratch;
  schedule_step_into(map, reqs, config_for(params.c, 128), a, scratch);
  b = a;
  schedule_step_into(map, reqs, config_for(params.c, 128), b, scratch);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.accessed_mask, b.accessed_mask);
  EXPECT_EQ(a.total_copy_accesses, b.total_copy_accesses);
}

TEST(Scheduler, AllAtOnceNeverSlower) {
  const auto params = memmap::derive_params(128, 2.0, 1.0, 4.0);
  HashedMap map(params.m, params.n_modules, params.r, 5);
  const auto reqs = distinct_requests(128, params.m, 13);
  auto cfg = config_for(params.c, 128);
  const auto clustered = schedule(map, reqs, cfg);
  cfg.all_at_once = true;
  const auto flat = schedule(map, reqs, cfg);
  EXPECT_LE(flat.rounds, clustered.rounds);
  for (const auto mask : flat.accessed_mask) {
    EXPECT_GE(static_cast<std::uint32_t>(__builtin_popcountll(mask)),
              params.c);
  }
}

TEST(Scheduler, Stage1LeavesBoundedLiveSet) {
  // The LPP stage-1 guarantee: at most n / (2c-1) live variables remain.
  // Our stage-1 length is stage1_turns * (2c-1) phases; verify the bound
  // holds empirically across seeds.
  const auto params = memmap::derive_params(256, 2.0, 1.0, 4.0);
  HashedMap map(params.m, params.n_modules, params.r, 5);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto reqs = distinct_requests(256, params.m, seed);
    const auto result = schedule(map, reqs, config_for(params.c, 256));
    EXPECT_LE(result.live_after_stage1, 256u / params.r + 1)
        << "seed " << seed;
  }
}

TEST(Scheduler, HotModuleMapStillCompletes) {
  // Adversarially terrible map: tiny module count forces serialization but
  // the protocol must still terminate with every request satisfied.
  TableMap map(64, /*modules=*/5, /*r=*/5, 3);
  std::vector<VarRequest> reqs;
  for (std::uint32_t i = 0; i < 32; ++i) {
    reqs.push_back({VarId(i), ProcId(i)});
  }
  SchedulerConfig cfg;
  cfg.c = 3;
  cfg.cluster_size = 5;
  cfg.n_processors = 32;
  const auto result = schedule(map, reqs, cfg);
  for (const auto mask : result.accessed_mask) {
    EXPECT_GE(__builtin_popcountll(mask), 3);
  }
  // 32 requests x 3 accesses through 5 unit-bandwidth modules needs at
  // least ceil(96/5) rounds.
  EXPECT_GE(result.rounds, 96u / 5u);
}

TEST(Scheduler, RoundsGrowSublinearlyInN) {
  // Theorem 2 in miniature: rounds should scale ~log n, certainly far
  // sublinearly.
  const double b = 4.0;
  std::vector<double> rounds;
  for (const std::uint32_t n : {64u, 256u, 1024u}) {
    const auto params = memmap::derive_params(n, 2.0, 1.0, b);
    HashedMap map(params.m, params.n_modules, params.r, 5);
    const auto reqs = distinct_requests(n, params.m, 17);
    const auto result = schedule(map, reqs, config_for(params.c, n));
    rounds.push_back(static_cast<double>(result.rounds));
  }
  EXPECT_LT(rounds[2], rounds[0] * 16.0);  // 16x n -> far less than 16x time
}

// -------------------------------------------------- majority memory -----

std::unique_ptr<MajorityMemory> make_memory(std::uint32_t n, double eps,
                                            std::uint64_t seed) {
  const auto params = memmap::derive_params(n, 2.0, eps, 4.0);
  auto map = std::make_shared<HashedMap>(params.m, params.n_modules, params.r,
                                         seed);
  SchedulerConfig cfg;
  cfg.c = params.c;
  cfg.cluster_size = params.cluster;
  cfg.n_processors = n;
  return std::make_unique<MajorityMemory>(std::move(map), cfg);
}

TEST(MajorityMemory, ReadYourWrite) {
  auto mem = make_memory(64, 1.0, 3);
  const VarWrite writes[] = {{VarId(7), 1234}};
  mem->step({}, {}, writes);
  const VarId reads[] = {VarId(7)};
  Word values[1];
  mem->step(reads, values, {});
  EXPECT_EQ(values[0], 1234);
}

TEST(MajorityMemory, ReadsSeePreStepValues) {
  auto mem = make_memory(64, 1.0, 3);
  mem->poke(VarId(5), 100);
  const VarId reads[] = {VarId(5)};
  Word values[1];
  const VarWrite writes[] = {{VarId(5), 200}};
  mem->step(reads, values, writes);
  EXPECT_EQ(values[0], 100);
  EXPECT_EQ(mem->peek(VarId(5)), 200);
}

TEST(MajorityMemory, OracleConsistencyUnderRandomStream) {
  // Property test: 200 steps of random reads/writes must match a flat
  // reference memory exactly.
  auto mem = make_memory(64, 1.0, 9);
  const std::uint64_t m = mem->size();
  std::map<std::uint32_t, Word> oracle;
  util::Rng rng(21);
  for (int step = 0; step < 200; ++step) {
    // Build distinct read and write sets (a var may appear in both).
    std::set<std::uint32_t> rset;
    std::set<std::uint32_t> wset;
    const auto n_reads = rng.below(16);
    const auto n_writes = rng.below(16);
    for (std::uint64_t i = 0; i < n_reads; ++i) {
      rset.insert(static_cast<std::uint32_t>(rng.below(m)));
    }
    for (std::uint64_t i = 0; i < n_writes; ++i) {
      wset.insert(static_cast<std::uint32_t>(rng.below(m)));
    }
    std::vector<VarId> reads(rset.begin(), rset.end());
    std::vector<VarWrite> writes;
    for (const auto v : wset) {
      writes.push_back({VarId(v), static_cast<Word>(rng.below(1'000'000))});
    }
    std::vector<Word> values(reads.size());
    mem->step(reads, values, writes);
    for (std::size_t i = 0; i < reads.size(); ++i) {
      const auto it = oracle.find(reads[i].value());
      const Word expected = it == oracle.end() ? 0 : it->second;
      ASSERT_EQ(values[i], expected)
          << "step " << step << " var " << reads[i].value();
    }
    for (const auto& w : writes) {
      oracle[w.var.value()] = w.value;
    }
  }
}

TEST(MajorityMemory, ToleratesStaleMinorityCorruption) {
  // Fault model the majority rule tolerates: copies that the last write
  // did NOT update (their stamps are stale) may hold arbitrary garbage.
  // Reads access >= c copies, which must intersect the >= c
  // freshly-stamped ones, and the freshest stamp wins — so corrupted
  // stale values can never surface.
  auto mem = make_memory(64, 1.0, 13);
  const auto r = mem->map().redundancy();
  const VarWrite writes[] = {{VarId(3), 4242}};
  mem->step({}, {}, writes);
  const auto& store = mem->store();
  std::uint64_t max_stamp = 0;
  for (std::uint32_t copy = 0; copy < r; ++copy) {
    max_stamp = std::max(max_stamp, store.at(VarId(3), copy).stamp);
  }
  int corrupted = 0;
  for (std::uint32_t copy = 0; copy < r; ++copy) {
    if (store.at(VarId(3), copy).stamp < max_stamp) {
      mem->mutable_store().corrupt(VarId(3), copy, -999);
      ++corrupted;
    }
  }
  // The write updated >= c of 2c-1 copies, so at most c-1 were stale.
  EXPECT_LE(corrupted, static_cast<int>((r + 1) / 2) - 1);
  const VarId reads[] = {VarId(3)};
  Word values[1];
  mem->step(reads, values, {});
  EXPECT_EQ(values[0], 4242);
}

TEST(MajorityMemory, MajorityIntersectionHoldsByConstruction) {
  // Structural check of the 2c-1 invariant: any two c-subsets intersect.
  for (std::uint32_t c = 1; c <= 8; ++c) {
    const std::uint32_t r = 2 * c - 1;
    // The heaviest c-subset and lightest c-subset must share an index.
    std::set<std::uint32_t> low;
    std::set<std::uint32_t> high;
    for (std::uint32_t i = 0; i < c; ++i) {
      low.insert(i);
      high.insert(r - 1 - i);
    }
    std::vector<std::uint32_t> intersection;
    std::set_intersection(low.begin(), low.end(), high.begin(), high.end(),
                          std::back_inserter(intersection));
    EXPECT_FALSE(intersection.empty()) << "c=" << c;
  }
}

TEST(MajorityMemory, CostReflectsContention) {
  auto mem = make_memory(64, 1.0, 15);
  // A batch of 64 distinct vars costs more rounds than a single var.
  util::Rng rng(5);
  const auto vars = rng.sample_without_replacement(mem->size(), 64);
  std::vector<VarId> reads;
  reads.reserve(64);
  for (const auto v : vars) {
    reads.emplace_back(static_cast<std::uint32_t>(v));
  }
  std::vector<Word> values(64);
  const auto big = mem->step(reads, values, {});
  const VarId one[] = {VarId(0)};
  Word val[1];
  const auto small = mem->step(one, val, {});
  EXPECT_GT(big.time, small.time);
  EXPECT_GT(big.work, small.work);
}

// -------------------------------------------- end-to-end with P-RAM -----

TEST(MajorityMemory, RunsPrefixSumIdenticallyToIdealPram) {
  // The integration the paper is about: a real P-RAM program executing on
  // the replicated memory must produce the exact ideal result.
  const std::uint32_t n = 32;
  auto spec = pram::programs::prefix_sum(n);
  auto spec2 = pram::programs::prefix_sum(n);

  pram::MachineConfig cfg;
  cfg.n_processors = n;
  cfg.m_shared_cells = spec.m_required;
  cfg.policy = pram::ConflictPolicy::kErew;

  // Ideal machine.
  pram::Machine ideal(cfg, std::move(spec.program));
  // Simulated machine: majority memory sized to the program footprint.
  const auto params = memmap::derive_params(n, 2.0, 1.0, 4.0);
  auto map = std::make_shared<HashedMap>(
      std::max<std::uint64_t>(params.m, spec2.m_required), params.n_modules,
      params.r, 33);
  SchedulerConfig scfg;
  scfg.c = params.c;
  scfg.cluster_size = params.cluster;
  scfg.n_processors = n;
  pram::Machine simulated(cfg, std::move(spec2.program),
                          std::make_unique<MajorityMemory>(map, scfg));

  util::Rng rng(77);
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto v = static_cast<Word>(rng.below(1000));
    ideal.poke_shared(VarId(i), v);
    simulated.poke_shared(VarId(i), v);
  }
  const auto out_ideal = ideal.run();
  const auto out_sim = simulated.run();
  ASSERT_TRUE(out_ideal.completed());
  ASSERT_TRUE(out_sim.completed());
  EXPECT_EQ(out_ideal.steps, out_sim.steps);
  // The simulated machine pays >1 round for contended steps.
  EXPECT_GE(out_sim.mem_time, out_ideal.mem_time);
  for (std::uint32_t i = 0; i < n; ++i) {
    EXPECT_EQ(ideal.shared(VarId(i)), simulated.shared(VarId(i))) << i;
  }
}

}  // namespace
}  // namespace pramsim::majority
