#include "memmap/expansion.hpp"

#include <algorithm>
#include <bit>
#include <functional>
#include <span>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace pramsim::memmap {

double ExpansionResult::ratio_vs_bound(double b) const {
  PRAMSIM_ASSERT(b > 0.0 && q > 0 && redundancy > 0);
  const double bound =
      static_cast<double>(redundancy) * static_cast<double>(q) / b;
  return static_cast<double>(min_distinct) / bound;
}

namespace {

/// Copies per module, counted in flat arrays. Dense (one counter per
/// module) when that is no larger than an open-addressed table for the
/// adds it will see at load <= 1/2 — the Theorem 2 shape, M = 65536
/// against 14336 copies — else that table, so the footprint follows the
/// counted copies, never a huge M. clear() resets only touched counters.
class ModuleTally {
 public:
  /// A tally for at most `max_adds` adds between clears.
  ModuleTally(std::uint32_t modules, std::uint64_t max_adds)
      : touched_(max_adds) {
    const std::uint64_t slots = std::bit_ceil(std::max<std::uint64_t>(
        2 * std::min<std::uint64_t>(max_adds, modules), 16));
    if (modules <= 2 * slots) {
      counts_.assign(modules, 0);
    } else {
      counts_.assign(slots, 0);
      keys_.assign(slots, 0);
      shift_ = 64 - std::countr_zero(slots);
    }
  }

  void add(ModuleId module) {
    PRAMSIM_DASSERT(distinct_ < touched_.size());
    const std::size_t i = index(module.value());
    if (!keys_.empty()) {
      keys_[i] = module.value();
    }
    // Branch-free touched list: record the counter, keep it only on its
    // first count.
    touched_[distinct_] = static_cast<std::uint32_t>(i);
    distinct_ += counts_[i]++ == 0 ? 1 : 0;
  }

  /// Copies counted in `module` (0 when untouched).
  [[nodiscard]] std::uint32_t operator[](ModuleId module) const {
    return counts_[index(module.value())];
  }

  [[nodiscard]] std::uint64_t distinct() const { return distinct_; }

  void clear() {
    for (std::uint64_t i = 0; i < distinct_; ++i) {
      counts_[touched_[i]] = 0;
    }
    distinct_ = 0;
  }

 private:
  /// The module's counter: the module itself when dense, else its slot
  /// (Fibonacci hashing + linear probing; a slot is free iff its count
  /// is 0).
  [[nodiscard]] std::size_t index(std::uint32_t module) const {
    if (keys_.empty()) {
      return module;
    }
    std::size_t i = (module * 0x9E3779B97F4A7C15ULL) >> shift_;
    while (counts_[i] != 0 && keys_[i] != module) {
      i = (i + 1) & (counts_.size() - 1);
    }
    return i;
  }

  std::vector<std::uint32_t> counts_;
  std::vector<std::uint32_t> keys_;  ///< hashed mode only
  int shift_ = 0;
  std::vector<std::uint32_t> touched_;  ///< first distinct_ are live
  std::uint64_t distinct_ = 0;
};

/// k distinct variables of `map`, uniform (util::Rng's Floyd sampler).
std::vector<VarId> sample_vars(const MemoryMap& map, std::uint64_t k,
                               util::Rng& rng) {
  const auto sample = rng.sample_without_replacement(map.num_vars(), k);
  std::vector<VarId> vars(sample.size());
  for (std::size_t i = 0; i < sample.size(); ++i) {
    vars[i] = VarId(static_cast<std::uint32_t>(sample[i]));
  }
  return vars;
}

/// The copies of `vars`, variable-major: var v's r modules sit at
/// [v * r, (v + 1) * r).
std::vector<ModuleId> gather_copies(const MemoryMap& map,
                                    std::span<const VarId> vars) {
  const std::uint32_t r = map.redundancy();
  std::vector<ModuleId> copies(vars.size() * r);
  for (std::size_t v = 0; v < vars.size(); ++v) {
    map.copies_into(vars[v], std::span(copies).subspan(v * r, r));
  }
  return copies;
}

/// Count the distinct modules among the kept copies into `tally`.
std::uint64_t count_distinct(std::span<const ModuleId> copies,
                             std::span<const std::uint8_t> keep,
                             ModuleTally& tally) {
  tally.clear();
  for (std::size_t i = 0; i < copies.size(); ++i) {
    if (keep[i] != 0) {
      tally.add(copies[i]);
    }
  }
  return tally.distinct();
}

/// Greedy concentrator: iteratively keep, for each variable, the c copies
/// residing in the modules most shared with other kept copies.
std::uint64_t greedy_adversarial_coverage(const MemoryMap& map,
                                          std::span<const ModuleId> copies,
                                          std::uint32_t c,
                                          std::uint32_t refine_rounds) {
  const std::uint32_t r = map.redundancy();
  std::vector<std::uint8_t> keep(copies.size(), 1);
  ModuleTally popularity(map.num_modules(), copies.size());
  // The tally of each selection is both its coverage and the next
  // round's module popularity.
  std::uint64_t best = count_distinct(copies, keep, popularity);
  std::vector<std::uint32_t> order(r);
  std::vector<std::uint32_t> pop(r);
  for (std::uint32_t round = 0; round < refine_rounds; ++round) {
    // Keep the c most-popular copies per variable (ties: lower module id,
    // for determinism).
    for (std::size_t base = 0; base < copies.size(); base += r) {
      const auto var_copies = copies.subspan(base, r);
      for (std::uint32_t i = 0; i < r; ++i) {
        order[i] = i;
        pop[i] = popularity[var_copies[i]];
      }
      std::sort(order.begin(), order.end(),
                [&](std::uint32_t a, std::uint32_t b) {
                  if (pop[a] != pop[b]) {
                    return pop[a] > pop[b];
                  }
                  return var_copies[a].value() < var_copies[b].value();
                });
      std::fill_n(keep.begin() + static_cast<std::ptrdiff_t>(base), r, 0);
      for (std::uint32_t i = 0; i < c && i < r; ++i) {
        keep[base + order[i]] = 1;
      }
    }
    best = std::min(best, count_distinct(copies, keep, popularity));
  }
  return best;
}

std::uint64_t random_coverage(const MemoryMap& map,
                              std::span<const ModuleId> copies,
                              std::uint32_t c, util::Rng& rng) {
  const std::uint32_t r = map.redundancy();
  std::vector<std::uint8_t> keep(copies.size(), 0);
  for (std::size_t base = 0; base < copies.size(); base += r) {
    for (const auto i :
         rng.sample_without_replacement(r, std::min<std::uint64_t>(c, r))) {
      keep[base + i] = 1;
    }
  }
  ModuleTally tally(map.num_modules(), copies.size());
  return count_distinct(copies, keep, tally);
}

}  // namespace

ExpansionResult measure_expansion(const MemoryMap& map, std::uint32_t c,
                                  std::uint64_t q, std::uint32_t trials,
                                  std::uint64_t seed,
                                  std::uint32_t refine_rounds) {
  PRAMSIM_ASSERT(q >= 1 && q <= map.num_vars());
  PRAMSIM_ASSERT(c >= 1 && c <= map.redundancy());
  util::Rng rng(seed);
  ExpansionResult result;
  result.q = q;
  result.trials = trials;
  result.redundancy = map.redundancy();
  result.min_distinct = ~0ULL;
  result.min_distinct_random = ~0ULL;
  double sum = 0.0;
  for (std::uint32_t t = 0; t < trials; ++t) {
    const auto copies = gather_copies(map, sample_vars(map, q, rng));
    const auto adversarial =
        greedy_adversarial_coverage(map, copies, c, refine_rounds);
    const auto random = random_coverage(map, copies, c, rng);
    result.min_distinct = std::min(result.min_distinct, adversarial);
    result.min_distinct_random = std::min(result.min_distinct_random, random);
    sum += static_cast<double>(adversarial);
  }
  result.mean_distinct = trials > 0 ? sum / trials : 0.0;
  return result;
}

std::uint64_t greedy_min_coverage(const MemoryMap& map, std::uint32_t c,
                                  const std::vector<VarId>& vars,
                                  std::uint32_t refine_rounds) {
  PRAMSIM_ASSERT(!vars.empty());
  return greedy_adversarial_coverage(map, gather_copies(map, vars), c,
                                     refine_rounds);
}

std::uint64_t exact_min_coverage(const MemoryMap& map, std::uint32_t c,
                                 const std::vector<VarId>& vars) {
  PRAMSIM_ASSERT(!vars.empty());
  PRAMSIM_ASSERT_MSG(vars.size() <= 6, "exact minimizer is exponential");
  const std::uint32_t r = map.redundancy();
  PRAMSIM_ASSERT(c <= r);
  const auto copies = gather_copies(map, vars);

  // Enumerate all c-subsets of r as bitmasks once.
  std::vector<std::uint32_t> subsets;
  for (std::uint32_t mask = 0; mask < (1U << r); ++mask) {
    if (static_cast<std::uint32_t>(__builtin_popcount(mask)) == c) {
      subsets.push_back(mask);
    }
  }

  std::uint64_t best = ~0ULL;
  ModuleTally modules(map.num_modules(), vars.size() * c);
  std::vector<std::size_t> choice(vars.size(), 0);
  while (true) {
    modules.clear();
    for (std::size_t v = 0; v < vars.size(); ++v) {
      const std::uint32_t mask = subsets[choice[v]];
      for (std::uint32_t i = 0; i < r; ++i) {
        if ((mask >> i) & 1U) {
          modules.add(copies[v * r + i]);
        }
      }
    }
    best = std::min(best, modules.distinct());
    // Odometer increment.
    std::size_t pos = 0;
    while (pos < vars.size()) {
      if (++choice[pos] < subsets.size()) {
        break;
      }
      choice[pos] = 0;
      ++pos;
    }
    if (pos == vars.size()) {
      break;
    }
  }
  return best;
}

std::vector<VarId> adversarial_batch(const MemoryMap& map, std::uint32_t count,
                                     std::uint64_t seed) {
  PRAMSIM_ASSERT(count >= 1 && count <= map.num_vars());
  util::Rng rng(seed);
  // Sample a pool of candidate variables several times larger than the
  // batch, find the modules most loaded within the pool, and prefer
  // variables with the most copies in those hot modules.
  const std::uint64_t pool_size =
      std::min<std::uint64_t>(map.num_vars(), 8ULL * count);
  const auto pool = sample_vars(map, pool_size, rng);
  const std::uint32_t r = map.redundancy();
  const auto copies = gather_copies(map, pool);
  ModuleTally load(map.num_modules(), copies.size());
  for (const auto module : copies) {
    load.add(module);
  }

  // Score each candidate by the total load of the modules its copies
  // occupy (higher = more collision-prone batch member). A module holds
  // at most one copy per candidate, so a score is <= r * pool_size and
  // packs above the inverted variable id: the key order (score
  // descending, var ascending) is strict and total, so the top `count`
  // keys are exactly a stable sort's first `count` entries.
  PRAMSIM_ASSERT(static_cast<std::uint64_t>(r) * pool.size() < (1ULL << 32));
  std::vector<std::uint64_t> key(pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    std::uint64_t score = 0;
    for (const auto module : std::span(copies).subspan(i * r, r)) {
      score += load[module];
    }
    key[i] = score << 32 | (0xFFFFFFFFU - pool[i].value());
  }
  const auto top = key.begin() + count;
  std::nth_element(key.begin(), top - 1, key.end(), std::greater<>());
  std::sort(key.begin(), top, std::greater<>());

  std::vector<VarId> batch;
  batch.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    batch.emplace_back(0xFFFFFFFFU - static_cast<std::uint32_t>(key[i]));
  }
  return batch;
}

}  // namespace pramsim::memmap
