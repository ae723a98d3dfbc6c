#include "hashing/mv_memory.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/parallel.hpp"

namespace pramsim::hashing {

MvMemory::MvMemory(std::uint64_t m_vars, MvMemoryConfig config)
    : config_(config),
      rng_(config.seed),
      hash_(config.k_wise, config.n_modules, rng_),
      cells_(m_vars, 0) {
  PRAMSIM_ASSERT(m_vars >= 1 && config_.n_modules >= 1);
}

std::uint32_t MvMemory::module_of(VarId var) const {
  return static_cast<std::uint32_t>(hash_(var.value()));
}

pram::MemStepCost MvMemory::serve(const pram::AccessPlan& plan,
                                  pram::ServeContext& ctx) {
  const std::span<pram::Word> read_values = ctx.read_values();
  PRAMSIM_ASSERT(plan.reads.size() == read_values.size());
  advance_step_clock();
  ctx.stamp_step(steps_served());
  obs_count("hashed.steps");
  obs_count("hashed.reads", plan.reads.size());
  obs_count("hashed.writes", plan.writes.size());

  if (backend_ == pram::ServeBackend::kGroupParallel && plan.grouped()) {
    return serve_groups_parallel(plan, ctx);
  }

  // The plan's requests are the distinct variables of the step: count
  // them straight into the dense per-module load array; the step's time
  // is the max over touched modules.
  load_scratch_.resize(config_.n_modules, 0);
  touched_scratch_.clear();
  std::uint32_t max_load = 0;
  for (const auto& request : plan.requests) {
    PRAMSIM_ASSERT(request.var.index() < cells_.size());
    const std::uint32_t module = module_of(request.var);
    if (load_scratch_[module]++ == 0) {
      touched_scratch_.push_back(module);
    }
    max_load = std::max(max_load, load_scratch_[module]);
  }
  for (const auto module : touched_scratch_) {
    load_scratch_[module] = 0;
  }
  load_stats_.add(static_cast<double>(max_load));

  if (hooks_ != nullptr) {
    ctx.enable_flags();
  }
  for (std::size_t i = 0; i < plan.reads.size(); ++i) {
    bool flagged = false;
    read_values[i] = faulted_read(plan.reads[i], &flagged, reliability_);
    if (flagged) {
      ctx.flag_read(i);
    }
  }
  for (const auto& w : plan.writes) {
    faulted_write(w.var, w.value, reliability_);
  }

  if (config_.rehash_threshold != 0 && max_load > config_.rehash_threshold) {
    // Draw a fresh hash function. In a real machine this migrates every
    // cell (an O(m/M + log n) expected-time global operation); we charge
    // one extra max_load of time and count the event.
    hash_ = PolynomialHash(config_.k_wise, config_.n_modules, rng_);
    ++rehashes_;
    obs_event(obs::EventKind::kRehash, rehashes_, 0, max_load);
    obs_count("hashed.rehashes");
  }

  return pram::MemStepCost{.time = max_load,
                           .work = plan.requests.size(),
                           .live_after_stage1 = 0,
                           .max_queue = max_load};
}

pram::MemStepCost MvMemory::serve_groups_parallel(
    const pram::AccessPlan& plan, pram::ServeContext& ctx) {
  const std::span<pram::Word> read_values = ctx.read_values();
  const std::size_t n_reads = plan.reads.size();
  if (hooks_ != nullptr) {
    ctx.enable_flags();
  }

  // Plan groups ARE the touched modules (plan_group_of = module_of), so
  // a group's load is its size — the dense counting array disappears —
  // and groups touch disjoint cells, so the value loops fan freely: a
  // read+write of one variable is one request inside one group, served
  // read-before-write by that group's worker.
  const pram::GroupRange groups(plan);
  util::Executor* executor = ctx.executor();
  const std::size_t workers =
      executor != nullptr
          ? executor->plan_workers(groups.size(), plan.requests.size())
          : 1;
  const std::size_t chunk = (groups.size() + workers - 1) / workers;
  chunk_scratch_.assign(workers, {});

  auto body = [&](std::size_t g_lo, std::size_t g_hi) {
    ChunkTally& tally = chunk_scratch_[g_lo / chunk];
    for (std::size_t g = g_lo; g < g_hi; ++g) {
      const auto unit = groups[g];
      tally.max_load = std::max(
          tally.max_load, static_cast<std::uint32_t>(unit.requests.size()));
      for (const std::uint32_t j : unit.requests) {
        PRAMSIM_ASSERT(plan.requests[j].var.index() < cells_.size());
        // Requests lead with the reads in plan order, so a request index
        // below n_reads IS its read index.
        if (j < n_reads) {
          bool flagged = false;
          read_values[j] =
              faulted_read(plan.reads[j], &flagged, tally.stats);
          if (flagged) {
            ctx.flag_read(j);
          }
        }
        const std::uint32_t w = plan.request_write[j];
        if (w != pram::AccessPlan::kNone) {
          faulted_write(plan.writes[w].var, plan.writes[w].value,
                        tally.stats);
        }
      }
    }
  };
  if (executor != nullptr && workers > 1) {
    executor->run_with(groups.size(), workers, body);
  } else {
    body(0, groups.size());
  }

  // Deterministic post-merge in chunk order: counters are commutative
  // sums and the load reduction is a max, so any worker count folds to
  // the same totals.
  std::uint32_t max_load = 0;
  for (const auto& tally : chunk_scratch_) {
    reliability_.merge(tally.stats);
    max_load = std::max(max_load, tally.max_load);
  }
  load_stats_.add(static_cast<double>(max_load));

  return pram::MemStepCost{.time = max_load,
                           .work = plan.requests.size(),
                           .live_after_stage1 = 0,
                           .max_queue = max_load};
}

pram::Word MvMemory::faulted_read(VarId var, bool* flagged,
                                  pram::ReliabilityStats& stats) {
  if (hooks_ == nullptr) {
    return cells_[var.index()];
  }
  const std::uint64_t step = steps_served();
  ++stats.reads_served;
  if (hooks_->module_dead(ModuleId(module_of(var)), step)) {
    ++stats.uncorrectable;
    ++stats.erasures_skipped;
    ++stats.units_faulty;
    *flagged = true;
    return 0;
  }
  pram::Word value = cells_[var.index()];
  pram::Word stuck = 0;
  if (hooks_->stuck_at(var.index(), 0, step, stuck)) {
    ++stats.units_faulty;
    value = stuck;  // single copy: nothing to out-vote the stuck cell
  }
  return value;
}

void MvMemory::faulted_write(VarId var, pram::Word value,
                             pram::ReliabilityStats& stats) {
  if (hooks_ != nullptr) {
    const std::uint64_t step = steps_served();
    if (hooks_->module_dead(ModuleId(module_of(var)), step)) {
      ++stats.writes_dropped;
      return;
    }
    if (hooks_->corrupt_write(var.index(), 0, step, step, value)) {
      ++stats.corrupt_stores;
    }
  }
  cells_[var.index()] = value;
}

namespace {

/// The preimage scan behind MvMemory::adversarial_vars: one `module_of`
/// per address from `origin` (wrapping at m) until a module collects
/// `count` preimages or `scan_cap` addresses are seen, then that module's
/// bucket — else the first fullest one — in scan order. Per-module
/// counts are a flat array; each address's module is recorded in the same
/// pass as a `Module`, the narrowest type holding every module id (the
/// record is the attack's footprint: 64 KB at m = 65536 over 256
/// modules), and the winning bucket is read back from that record.
template <typename Module, typename ModuleOf>
std::vector<VarId> preimage_scan(const ModuleOf& module_of, std::uint64_t m,
                                 std::uint64_t origin,
                                 std::uint64_t scan_cap, std::uint32_t count,
                                 std::uint32_t n_modules) {
  std::vector<std::uint32_t> load(n_modules, 0);
  std::vector<Module> scanned;
  scanned.reserve(scan_cap);
  std::uint32_t best = 0;
  Module best_module = 0;
  for (std::uint64_t addr = origin; scanned.size() < scan_cap;) {
    const auto module = static_cast<Module>(module_of(addr));
    scanned.push_back(module);
    const std::uint32_t size = ++load[module];
    if (size > best) {
      best = size;
      best_module = module;
    }
    if (size >= count) {
      break;
    }
    addr = addr + 1 == m ? 0 : addr + 1;
  }
  std::vector<VarId> bucket;
  bucket.reserve(best);
  std::uint64_t addr = origin;
  for (const Module module : scanned) {
    if (module == best_module) {
      bucket.emplace_back(static_cast<std::uint32_t>(addr));
    }
    addr = addr + 1 == m ? 0 : addr + 1;
  }
  return bucket;
}

}  // namespace

std::vector<VarId> MvMemory::adversarial_vars(std::uint32_t count,
                                              std::uint64_t seed) const {
  const std::uint64_t m = cells_.size();
  count = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(count, m));
  if (count == 0) {
    return {};
  }
  // Scan a window of the address space (expected count * M preimage
  // tries), bucketing by module, until one module collects `count`
  // preimages. The seed only rotates the scan origin: the attack is
  // deterministic given the hash.
  const std::uint64_t scan_cap = std::min<std::uint64_t>(
      m, 1024 + 8ull * count * config_.n_modules);
  const std::uint64_t origin = util::SplitMix64(seed).next() % m;
  const auto hash = [this](std::uint64_t addr) {
    return module_of(VarId(static_cast<std::uint32_t>(addr)));
  };
  const std::uint32_t modules = config_.n_modules;
  if (modules <= 1U << 8) {
    return preimage_scan<std::uint8_t>(hash, m, origin, scan_cap, count,
                                       modules);
  }
  if (modules <= 1U << 16) {
    return preimage_scan<std::uint16_t>(hash, m, origin, scan_cap, count,
                                        modules);
  }
  return preimage_scan<std::uint32_t>(hash, m, origin, scan_cap, count,
                                      modules);
}

pram::Word MvMemory::peek(VarId var) const {
  PRAMSIM_ASSERT(var.index() < cells_.size());
  if (hooks_ != nullptr) {
    if (hooks_->module_dead(ModuleId(module_of(var)), steps_served())) {
      return 0;
    }
    pram::Word stuck = 0;
    if (hooks_->stuck_at(var.index(), 0, steps_served(), stuck)) {
      return stuck;
    }
  }
  return cells_[var.index()];
}

void MvMemory::poke(VarId var, pram::Word value) {
  PRAMSIM_ASSERT(var.index() < cells_.size());
  // Out-of-band initialization still lands on faulty hardware: a dead
  // module never learns the value.
  faulted_write(var, value, reliability_);
}

}  // namespace pramsim::hashing
