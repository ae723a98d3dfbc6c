// Tests for GF(256) arithmetic, Rabin dispersal (any-b-of-d recovery),
// and the Schuster IdaMemory scheme.
#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <set>
#include <vector>

#include "faults/fault_model.hpp"
#include "ida/dispersal.hpp"
#include "ida/gf256.hpp"
#include "ida/ida_memory.hpp"
#include "util/rng.hpp"

namespace pramsim::ida {
namespace {

using pram::VarWrite;
using pram::Word;

// ---------------------------------------------------------- GF(256) -----

TEST(Gf256, AdditionIsXor) {
  EXPECT_EQ(GF256::add(0b1010, 0b0110), 0b1100);
  EXPECT_EQ(GF256::add(0xFF, 0xFF), 0);  // every element is self-inverse
}

TEST(Gf256, MultiplicativeIdentityAndZero) {
  for (int a = 0; a < 256; ++a) {
    const auto e = static_cast<GF256::Elem>(a);
    EXPECT_EQ(GF256::mul(e, 1), e);
    EXPECT_EQ(GF256::mul(1, e), e);
    EXPECT_EQ(GF256::mul(e, 0), 0);
  }
}

TEST(Gf256, KnownProducts) {
  // In GF(256) with poly 0x11D: 2*128 = 0x100 -> reduced by 0x11D = 0x1D.
  EXPECT_EQ(GF256::mul(2, 128), 0x1D);
  EXPECT_EQ(GF256::mul(3, 7), 9);  // (x+1)(x^2+x+1) = x^3+1 -> 0b1001
}

TEST(Gf256, EveryNonzeroElementHasInverse) {
  for (int a = 1; a < 256; ++a) {
    const auto e = static_cast<GF256::Elem>(a);
    EXPECT_EQ(GF256::mul(e, GF256::inv(e)), 1) << a;
  }
}

TEST(Gf256, DivisionInvertsMultiplication) {
  util::Rng rng(3);
  for (int trial = 0; trial < 2000; ++trial) {
    const auto a = static_cast<GF256::Elem>(rng.below(256));
    const auto b = static_cast<GF256::Elem>(rng.between(1, 255));
    EXPECT_EQ(GF256::div(GF256::mul(a, b), b), a);
  }
}

TEST(Gf256, FieldAxiomsOnRandomSamples) {
  util::Rng rng(5);
  for (int trial = 0; trial < 2000; ++trial) {
    const auto a = static_cast<GF256::Elem>(rng.below(256));
    const auto b = static_cast<GF256::Elem>(rng.below(256));
    const auto c = static_cast<GF256::Elem>(rng.below(256));
    // commutativity
    EXPECT_EQ(GF256::mul(a, b), GF256::mul(b, a));
    // associativity
    EXPECT_EQ(GF256::mul(a, GF256::mul(b, c)),
              GF256::mul(GF256::mul(a, b), c));
    // distributivity
    EXPECT_EQ(GF256::mul(a, GF256::add(b, c)),
              GF256::add(GF256::mul(a, b), GF256::mul(a, c)));
  }
}

TEST(Gf256, AlphaGeneratesAllNonzeroElements) {
  std::set<GF256::Elem> seen;
  for (std::uint32_t i = 0; i < 255; ++i) {
    seen.insert(GF256::alpha_pow(i));
  }
  EXPECT_EQ(seen.size(), 255u);
  EXPECT_EQ(seen.count(0), 0u);
}

TEST(Gf256, PowMatchesRepeatedMul) {
  util::Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const auto a = static_cast<GF256::Elem>(rng.between(1, 255));
    const auto e = static_cast<std::uint32_t>(rng.below(10));
    GF256::Elem expect = 1;
    for (std::uint32_t i = 0; i < e; ++i) {
      expect = GF256::mul(expect, a);
    }
    EXPECT_EQ(GF256::pow(a, e), expect);
  }
}

// -------------------------------------------------------- dispersal -----

class DispersalRoundTrip
    : public ::testing::TestWithParam<std::pair<std::uint32_t, std::uint32_t>> {};

TEST_P(DispersalRoundTrip, AnyBSharesRecoverTheBlock) {
  const auto [b, d] = GetParam();
  Disperser disperser({b, d});
  util::Rng rng(100 + b * 7 + d);
  std::vector<GF256::Elem> block(b);
  for (auto& e : block) {
    e = static_cast<GF256::Elem>(rng.below(256));
  }
  const auto shares = disperser.encode_bytes(block);
  ASSERT_EQ(shares.size(), d);

  // Try several random b-subsets of the d shares.
  for (int trial = 0; trial < 20; ++trial) {
    const auto pick = rng.sample_without_replacement(d, b);
    std::vector<std::uint32_t> indices;
    std::vector<GF256::Elem> values;
    for (const auto idx : pick) {
      indices.push_back(static_cast<std::uint32_t>(idx));
      values.push_back(shares[idx]);
    }
    const auto recovered = disperser.recover_bytes(indices, values);
    EXPECT_EQ(recovered, block) << "b=" << b << " d=" << d;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Params, DispersalRoundTrip,
    ::testing::Values(std::make_pair(1u, 1u), std::make_pair(1u, 4u),
                      std::make_pair(2u, 3u), std::make_pair(4u, 8u),
                      std::make_pair(8u, 16u), std::make_pair(16u, 24u),
                      std::make_pair(32u, 64u), std::make_pair(13u, 40u)));

TEST(Dispersal, SystematicPrefixNotRequired) {
  // The first b shares are P(alpha^0..alpha^(b-1)), not the raw block:
  // dispersal is non-systematic, so recovery must genuinely interpolate.
  Disperser disperser({4, 8});
  std::vector<GF256::Elem> block = {10, 20, 30, 40};
  const auto shares = disperser.encode_bytes(block);
  std::vector<GF256::Elem> prefix(shares.begin(), shares.begin() + 4);
  EXPECT_NE(prefix, block);
}

TEST(Dispersal, WordLanesIndependent) {
  Disperser disperser({4, 8});
  util::Rng rng(17);
  std::vector<Word> block(4);
  for (auto& w : block) {
    w = static_cast<Word>(rng.next());
  }
  const auto shares = disperser.encode_words(block);
  ASSERT_EQ(shares.size(), 8u);
  // Recover from shares {1, 3, 4, 6}.
  const std::vector<std::uint32_t> indices = {1, 3, 4, 6};
  const std::vector<Word> vals = {shares[1], shares[3], shares[4], shares[6]};
  EXPECT_EQ(disperser.recover_words(indices, vals), block);
}

TEST(Gf256, MulSpanAccumMatchesScalarMul) {
  util::Rng rng(77);
  for (const int ci : {0, 1, 2, 29, 255}) {
    const auto c = static_cast<GF256::Elem>(ci);
    std::vector<GF256::Elem> src(97), dst(97), expect(97);
    for (std::size_t i = 0; i < src.size(); ++i) {
      src[i] = static_cast<GF256::Elem>(rng.below(256));
      dst[i] = static_cast<GF256::Elem>(rng.below(256));
      expect[i] = GF256::add(dst[i], GF256::mul(c, src[i]));
    }
    GF256::mul_span_accum(dst.data(), src.data(), dst.size(), c);
    EXPECT_EQ(dst, expect) << "c=" << int{c};
  }
}

// The matrix codec must be BIT-identical to the per-word paths:
// encode_block against Horner encode_words, decode_block (identity AND
// arbitrary surviving-index sets) against Lagrange recover_words, over
// several random blocks.
TEST(Dispersal, MatrixCodecMatchesPerWordCodec) {
  const std::uint32_t b = 4;
  const std::uint32_t d = 8;
  Disperser disperser({b, d});
  util::Rng rng(31);
  std::vector<std::uint32_t> identity(b);
  std::iota(identity.begin(), identity.end(), 0);
  for (int t = 0; t < 6; ++t) {
    std::vector<pram::Word> block(b);
    for (auto& w : block) {
      w = static_cast<pram::Word>(rng.next());
    }
    std::vector<pram::Word> shares(d, -1);
    disperser.encode_block(block.data(), shares.data());
    ASSERT_EQ(shares, disperser.encode_words(block)) << "block " << t;

    // Identity decode (the healthy serve path).
    std::vector<pram::Word> out(b, 0);
    disperser.decode_block(identity, shares.data(), out.data());
    ASSERT_EQ(out, block) << "block " << t;

    // Arbitrary survivor sets (the degraded gather): position j holds
    // share indices[j]'s word.
    for (int trial = 0; trial < 10; ++trial) {
      const auto pick = rng.sample_without_replacement(d, b);
      std::vector<std::uint32_t> indices;
      std::vector<pram::Word> vals;
      for (std::uint32_t j = 0; j < b; ++j) {
        indices.push_back(static_cast<std::uint32_t>(pick[j]));
        vals.push_back(shares[pick[j]]);
      }
      std::fill(out.begin(), out.end(), 0);
      disperser.decode_block(indices, vals.data(), out.data());
      ASSERT_EQ(out, block) << "block " << t << " trial " << trial;
      ASSERT_EQ(out, disperser.recover_words(indices, vals))
          << "block " << t << " trial " << trial;
    }
  }
}

// decode_word is one row of the healthy recovery matrix: for random
// blocks and every k it equals word k of the full identity decode.
TEST(Dispersal, DecodeWordMatchesDecodeBlock) {
  for (const auto& [b, d] : {std::pair{1U, 3U}, std::pair{4U, 8U},
                             std::pair{8U, 16U}}) {
    Disperser disperser({b, d});
    util::Rng rng(53 + b);
    std::vector<std::uint32_t> identity(b);
    std::iota(identity.begin(), identity.end(), 0U);
    for (int t = 0; t < 20; ++t) {
      std::vector<pram::Word> block(b);
      for (auto& w : block) {
        w = static_cast<pram::Word>(rng.next());
      }
      std::vector<pram::Word> shares(d);
      disperser.encode_block(block.data(), shares.data());
      std::vector<pram::Word> decoded(b);
      disperser.decode_block(identity, shares.data(), decoded.data());
      for (std::uint32_t k = 0; k < b; ++k) {
        ASSERT_EQ(disperser.decode_word(shares.data(), k), decoded[k])
            << "b " << b << ", block " << t << ", word " << k;
        ASSERT_EQ(decoded[k], block[k]);
      }
    }
  }
}

TEST(Dispersal, StorageFactorIsDOverB) {
  EXPECT_DOUBLE_EQ(Disperser({4, 8}).storage_factor(), 2.0);
  EXPECT_DOUBLE_EQ(Disperser({10, 15}).storage_factor(), 1.5);
}

TEST(Dispersal, ToleratesMaximumErasures) {
  // Lose d-b shares (the worst case); the rest must still recover.
  const std::uint32_t b = 6;
  const std::uint32_t d = 14;
  Disperser disperser({b, d});
  util::Rng rng(23);
  std::vector<GF256::Elem> block(b);
  for (auto& e : block) {
    e = static_cast<GF256::Elem>(rng.below(256));
  }
  const auto shares = disperser.encode_bytes(block);
  // Keep only the LAST b shares (erase the first d-b).
  std::vector<std::uint32_t> indices(b);
  std::iota(indices.begin(), indices.end(), d - b);
  std::vector<GF256::Elem> values;
  for (const auto idx : indices) {
    values.push_back(shares[idx]);
  }
  EXPECT_EQ(disperser.recover_bytes(indices, values), block);
}

// -------------------------------------------------------- IdaMemory -----

IdaMemoryConfig small_config() {
  IdaMemoryConfig cfg;
  cfg.b = 4;
  cfg.d = 8;
  cfg.n_modules = 32;
  cfg.seed = 5;
  return cfg;
}

TEST(IdaMemory, ReadAfterWrite) {
  IdaMemory mem(64, small_config());
  const VarWrite writes[] = {{VarId(10), 777}};
  mem.step({}, {}, writes);
  const VarId reads[] = {VarId(10)};
  Word values[1];
  mem.step(reads, values, {});
  EXPECT_EQ(values[0], 777);
}

TEST(IdaMemory, ReadsSeePreStepState) {
  IdaMemory mem(64, small_config());
  mem.poke(VarId(3), 100);
  const VarId reads[] = {VarId(3)};
  Word values[1];
  const VarWrite writes[] = {{VarId(3), 200}};
  mem.step(reads, values, writes);
  EXPECT_EQ(values[0], 100);
  EXPECT_EQ(mem.peek(VarId(3)), 200);
}

TEST(IdaMemory, NeighborsInBlockUnaffectedByWrite) {
  IdaMemory mem(64, small_config());
  for (std::uint32_t v = 0; v < 8; ++v) {
    mem.poke(VarId(v), static_cast<Word>(v * 10));
  }
  const VarWrite writes[] = {{VarId(2), 999}};
  mem.step({}, {}, writes);
  for (std::uint32_t v = 0; v < 8; ++v) {
    EXPECT_EQ(mem.peek(VarId(v)), v == 2 ? 999 : static_cast<Word>(v * 10));
  }
}

TEST(IdaMemory, OracleConsistencyUnderRandomStream) {
  IdaMemory mem(256, small_config());
  std::map<std::uint32_t, Word> oracle;
  util::Rng rng(31);
  for (int step = 0; step < 150; ++step) {
    std::set<std::uint32_t> rset;
    std::set<std::uint32_t> wset;
    for (std::uint64_t i = 0, k = rng.below(10); i < k; ++i) {
      rset.insert(static_cast<std::uint32_t>(rng.below(256)));
    }
    for (std::uint64_t i = 0, k = rng.below(10); i < k; ++i) {
      wset.insert(static_cast<std::uint32_t>(rng.below(256)));
    }
    std::vector<VarId> reads(rset.begin(), rset.end());
    std::vector<VarWrite> writes;
    for (const auto v : wset) {
      writes.push_back({VarId(v), static_cast<Word>(rng.below(1 << 30))});
    }
    std::vector<Word> values(reads.size());
    mem.step(reads, values, writes);
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

// peek decodes one word on the healthy path and recovers the whole
// block under fault hooks. After random writes, both must equal a
// served read of every variable (the full-block decode) and the written
// value. Four dead modules of 32 leave every block (d = 8 distinct
// modules) at least b = 4 surviving shares.
TEST(IdaMemory, PeekMatchesServedReadsHealthyAndFaulted) {
  const IdaMemoryConfig cfg = small_config();
  IdaMemory mem(256, cfg);
  std::map<std::uint32_t, Word> oracle;
  util::Rng rng(41);
  for (int step = 0; step < 40; ++step) {
    std::set<std::uint32_t> wset;
    for (std::uint64_t i = 0, k = rng.below(12); i < k; ++i) {
      wset.insert(static_cast<std::uint32_t>(rng.below(256)));
    }
    std::vector<VarWrite> writes;
    for (const auto v : wset) {
      writes.push_back({VarId(v), static_cast<Word>(rng.next())});
      oracle[v] = writes.back().value;
    }
    mem.step({}, {}, writes);
  }
  std::vector<VarId> all;
  for (std::uint32_t v = 0; v < 256; ++v) {
    all.emplace_back(v);
  }
  const auto expect_every_var = [&](const char* mode) {
    std::vector<Word> served(all.size());
    mem.step(all, served, {});
    for (std::uint32_t v = 0; v < 256; ++v) {
      const auto it = oracle.find(v);
      ASSERT_EQ(served[v], it == oracle.end() ? 0 : it->second)
          << mode << " var " << v;
      ASSERT_EQ(mem.peek(VarId(v)), served[v]) << mode << " var " << v;
    }
  };
  expect_every_var("healthy");

  const faults::FaultModel faults({.seed = 7, .dead_modules = 4},
                                  cfg.n_modules);
  ASSERT_EQ(faults.dead_module_count(), 4U);
  ASSERT_TRUE(mem.set_fault_hooks(&faults));
  expect_every_var("faulted");
  mem.set_fault_hooks(nullptr);
}

TEST(IdaMemory, WorkAmplificationIsThetaB) {
  // Reading k variables from distinct blocks processes k*b variables.
  IdaMemoryConfig cfg = small_config();
  IdaMemory mem(256, cfg);
  std::vector<VarId> reads;
  for (std::uint32_t blk = 0; blk < 16; ++blk) {
    reads.emplace_back(blk * cfg.b);  // one var per block
  }
  std::vector<Word> values(reads.size());
  const auto cost = mem.step(reads, values, {});
  EXPECT_EQ(cost.work, 16u * cfg.b);  // b shares fetched per block
  EXPECT_NEAR(mem.work_amplification(), cfg.b, 1e-9);
}

TEST(IdaMemory, WritesCostMoreThanReads) {
  IdaMemoryConfig cfg = small_config();
  IdaMemory mem_r(256, cfg);
  IdaMemory mem_w(256, cfg);
  std::vector<VarId> reads;
  std::vector<VarWrite> writes;
  for (std::uint32_t blk = 0; blk < 8; ++blk) {
    reads.emplace_back(blk * cfg.b);
    writes.push_back({VarId(blk * cfg.b), 5});
  }
  std::vector<Word> values(reads.size());
  const auto rc = mem_r.step(reads, values, {});
  const auto wc = mem_w.step({}, {}, writes);
  // A write is read-modify-write: b fetches + d updates per block.
  EXPECT_GT(wc.work, rc.work);
  EXPECT_EQ(wc.work, 8u * (cfg.b + cfg.d));
}

TEST(IdaMemory, TimeReflectsModuleContention) {
  // Hammering many variables in one block serializes on that block's
  // modules less than hammering across blocks on a tiny module count.
  IdaMemoryConfig cfg;
  cfg.b = 4;
  cfg.d = 8;
  cfg.n_modules = 8;  // tight: heavy contention
  cfg.seed = 9;
  IdaMemory mem(512, cfg);
  std::vector<VarId> reads;
  for (std::uint32_t blk = 0; blk < 64; ++blk) {
    reads.emplace_back(blk * cfg.b);
  }
  std::vector<Word> values(reads.size());
  const auto cost = mem.step(reads, values, {});
  // 64 blocks x 4 shares over 8 modules: >= 32 rounds.
  EXPECT_GE(cost.time, 32u);
}

}  // namespace
}  // namespace pramsim::ida
