#include "pram/trace.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"
#include "util/math.hpp"

namespace pramsim::pram {

std::string to_string(TraceFamily family) {
  switch (family) {
    case TraceFamily::kPermutation: return "permutation";
    case TraceFamily::kUniform: return "uniform";
    case TraceFamily::kHotspot: return "hotspot";
    case TraceFamily::kStride: return "stride";
    case TraceFamily::kBitReversal: return "bit-reversal";
    case TraceFamily::kBroadcast: return "broadcast";
    case TraceFamily::kZipfian: return "zipfian";
    case TraceFamily::kWorkingSet: return "working-set";
  }
  return "???";
}

const std::vector<TraceFamily>& all_trace_families() {
  static const std::vector<TraceFamily> families = {
      TraceFamily::kPermutation, TraceFamily::kUniform,
      TraceFamily::kHotspot,     TraceFamily::kStride,
      TraceFamily::kBitReversal, TraceFamily::kBroadcast,
      TraceFamily::kZipfian,     TraceFamily::kWorkingSet,
  };
  return families;
}

const std::vector<TraceFamily>& exclusive_trace_families() {
  static const std::vector<TraceFamily> families = {
      TraceFamily::kPermutation,
      TraceFamily::kStride,
      TraceFamily::kBitReversal,
  };
  return families;
}

namespace {

std::uint64_t bit_reverse(std::uint64_t x, int bits) {
  std::uint64_t out = 0;
  for (int i = 0; i < bits; ++i) {
    out = (out << 1) | ((x >> i) & 1ULL);
  }
  return out;
}

// SplitMix64 finalizer: maps a working-set window index to a pseudo-random
// but deterministic base address, so consecutive windows land far apart.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// Bounded-Pareto inverse-CDF Zipf-like sampler over ranks [1, m]: one
// uniform draw, no rejection. For s != 1 the continuous CDF is
// F(x) = (1 - x^(1-s)) / (1 - m^(1-s)); inverting and flooring gives a
// rank whose mass decays like rank^-s. s == 1 degenerates to
// rank = m^u (log-uniform). Hot ranks map to low addresses, matching
// kHotspot's convention.
struct ZipfSampler {
  double s;
  double m_real;
  double tail;  // m^(1-s) (s != 1) or ln(m) (s == 1)

  ZipfSampler(double exponent, std::uint64_t m)
      : s(exponent), m_real(static_cast<double>(m)) {
    tail = (s == 1.0) ? std::log(m_real) : std::pow(m_real, 1.0 - s);
  }

  std::uint64_t operator()(util::Rng& rng) const {
    const double u = rng.uniform01();
    double x;
    if (s == 1.0) {
      x = std::exp(u * tail);
    } else {
      x = std::pow(1.0 - u * (1.0 - tail), 1.0 / (1.0 - s));
    }
    auto rank = static_cast<std::uint64_t>(x);
    rank = std::clamp<std::uint64_t>(rank, 1, static_cast<std::uint64_t>(m_real));
    return rank - 1;
  }
};

}  // namespace

AccessBatch make_batch(TraceFamily family, std::uint32_t n, std::uint64_t m,
                       util::Rng& rng, const TraceParams& params) {
  PRAMSIM_ASSERT(n >= 1 && m >= 1);
  AccessBatch batch;
  batch.reserve(n);

  auto op_for = [&](std::uint32_t /*proc*/) {
    return rng.bernoulli(params.write_fraction) ? AccessOp::kWrite
                                                : AccessOp::kRead;
  };
  auto push = [&](std::uint32_t proc, std::uint64_t var, AccessOp op) {
    PRAMSIM_ASSERT(var < m);
    batch.push_back({ProcId(proc), op, VarId(static_cast<std::uint32_t>(var)),
                     static_cast<Word>(rng.below(1'000'000))});
  };

  switch (family) {
    case TraceFamily::kPermutation: {
      PRAMSIM_ASSERT(m >= n);
      const auto vars = rng.sample_without_replacement(m, n);
      for (std::uint32_t p = 0; p < n; ++p) {
        push(p, vars[p], op_for(p));
      }
      break;
    }
    case TraceFamily::kUniform: {
      for (std::uint32_t p = 0; p < n; ++p) {
        push(p, rng.below(m), op_for(p));
      }
      break;
    }
    case TraceFamily::kHotspot: {
      const std::uint64_t hot = std::max<std::uint64_t>(
          1, std::min<std::uint64_t>(params.hotset_size, m));
      for (std::uint32_t p = 0; p < n; ++p) {
        const std::uint64_t var = rng.bernoulli(params.hotspot_fraction)
                                      ? rng.below(hot)
                                      : rng.below(m);
        push(p, var, op_for(p));
      }
      break;
    }
    case TraceFamily::kStride: {
      const std::uint64_t stride = std::max<std::uint64_t>(1, params.stride);
      for (std::uint32_t p = 0; p < n; ++p) {
        push(p, (params.offset + p * stride) % m, op_for(p));
      }
      break;
    }
    case TraceFamily::kBitReversal: {
      const int bits = n > 1 ? util::ilog2_ceil(n) : 1;
      PRAMSIM_ASSERT_MSG(m >= (1ULL << bits),
                         "bit-reversal trace needs m >= next_pow2(n)");
      for (std::uint32_t p = 0; p < n; ++p) {
        push(p, bit_reverse(p, bits), op_for(p));
      }
      break;
    }
    case TraceFamily::kBroadcast: {
      for (std::uint32_t p = 0; p < n; ++p) {
        push(p, 0, AccessOp::kRead);
      }
      break;
    }
    case TraceFamily::kZipfian: {
      const ZipfSampler zipf(params.zipf_exponent, m);
      for (std::uint32_t p = 0; p < n; ++p) {
        push(p, zipf(rng), op_for(p));
      }
      break;
    }
    case TraceFamily::kWorkingSet: {
      const std::uint64_t size = std::max<std::uint64_t>(
          1, std::min<std::uint64_t>(params.working_set_size, m));
      const std::uint64_t period =
          std::max<std::uint64_t>(1, params.working_set_period);
      const std::uint64_t window = params.working_set_phase / period;
      const std::uint64_t base = mix64(window) % (m - size + 1);
      for (std::uint32_t p = 0; p < n; ++p) {
        const std::uint64_t var = rng.bernoulli(params.working_set_fraction)
                                      ? base + rng.below(size)
                                      : rng.below(m);
        push(p, var, op_for(p));
      }
      break;
    }
  }
  return batch;
}

std::vector<AccessBatch> make_trace(TraceFamily family, std::uint32_t n,
                                    std::uint64_t m, std::size_t steps,
                                    util::Rng& rng,
                                    const TraceParams& params) {
  std::vector<AccessBatch> trace;
  trace.reserve(steps);
  for (std::size_t s = 0; s < steps; ++s) {
    trace.push_back(make_trace_step(family, n, m, s, rng, params));
  }
  return trace;
}

AccessBatch make_trace_step(TraceFamily family, std::uint32_t n,
                            std::uint64_t m, std::size_t step,
                            util::Rng& rng, const TraceParams& params) {
  // Vary the stride family's offset per step so consecutive steps hit
  // different variables (like a scanning stencil), and advance the
  // working-set family's phase so the hot window rotates every
  // working_set_period steps.
  TraceParams p = params;
  if (family == TraceFamily::kStride) {
    p.offset = (params.offset + step * n) % m;
  } else if (family == TraceFamily::kWorkingSet) {
    p.working_set_phase = params.working_set_phase + step;
  }
  return make_batch(family, n, m, rng, p);
}

}  // namespace pramsim::pram
