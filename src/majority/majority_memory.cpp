#include "majority/majority_memory.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace pramsim::majority {

MajorityMemory::MajorityMemory(std::unique_ptr<AccessEngine> engine)
    : engine_(std::move(engine)),
      store_(engine_->map().num_vars(), engine_->map().redundancy()),
      n_processors_(std::max<std::uint32_t>(engine_->n_processors(), 1)) {
  PRAMSIM_ASSERT(engine_ != nullptr);
  PRAMSIM_ASSERT_MSG(engine_->map().redundancy() % 2 == 1,
                     "majority rule requires odd r = 2c-1");
  // Fingerprint the map's placement of variable 0 as the relocation-probe
  // salt: a pure function of the map (so replays match) that still varies
  // with the map seed (so instances don't all relocate identically).
  for (const auto module : engine_->map().copies(VarId(0))) {
    map_salt_ = map_salt_ * 0x100000001B3ULL + module.index() + 1;
  }
}

MajorityMemory::MajorityMemory(std::shared_ptr<const memmap::MemoryMap> map,
                               SchedulerConfig scheduler)
    : MajorityMemory(
          std::make_unique<DmmpcEngine>(std::move(map), scheduler)) {}

void MajorityMemory::copies_into_current(VarId var,
                                         std::span<ModuleId> out) const {
  engine_->map().copies_into(var, out);
  if (relocated_.empty()) {
    return;
  }
  const std::uint32_t r = engine_->map().redundancy();
  for (std::uint32_t copy = 0; copy < r; ++copy) {
    const auto it = relocated_.find(var.index() * r + copy);
    if (it != relocated_.end()) {
      out[copy] = it->second;
    }
  }
}

std::uint64_t MajorityMemory::degraded_serve(const pram::AccessPlan& plan,
                                             pram::ServeContext& ctx) {
  const std::span<const VarId> reads = plan.reads;
  const std::span<const pram::VarWrite> writes = plan.writes;
  const std::span<pram::Word> read_values = ctx.read_values();
  // Degraded-mode protocol: majority-vote reads over every surviving
  // copy, write-through to every surviving copy. The engine's schedule
  // still prices the step; the widened copy traffic is extra work.
  const std::uint32_t r = engine_->map().redundancy();
  const std::uint64_t stamp = steps_served();
  std::uint64_t fault_work = 0;
  std::uint64_t masked = 0;
  std::uint64_t uncorrectable = 0;
  std::uint64_t erased_total = 0;
  std::uint64_t dropped = 0;
  std::vector<ModuleId> modules(r);
  ctx.enable_flags();
  for (std::size_t i = 0; i < reads.size(); ++i) {
    copies_into_current(reads[i], modules);
    const auto outcome = store_.vote(reads[i], modules, stamp, *hooks_);
    read_values[i] = outcome.winner.value;
    ++reliability_.reads_served;
    reliability_.erasures_skipped += outcome.erased;
    reliability_.units_faulty += outcome.erased + outcome.dissenting;
    fault_work += outcome.survivors;
    erased_total += outcome.erased;
    if (outcome.survivors == 0) {
      ++reliability_.uncorrectable;
      ctx.flag_read(i);
      ++uncorrectable;
      obs_event(obs::EventKind::kUncorrectable, reads[i].index(),
                outcome.erased, outcome.dissenting);
    } else if (outcome.erased + outcome.dissenting > 0) {
      ++reliability_.faults_masked;
      ++masked;
      obs_event(obs::EventKind::kDegradedVote, reads[i].index(),
                outcome.erased, outcome.dissenting, outcome.survivors);
    }
  }
  for (std::size_t i = 0; i < writes.size(); ++i) {
    copies_into_current(writes[i].var, modules);
    const std::uint32_t d =
        store_.store_all(writes[i].var, modules, writes[i].value, stamp,
                         stamp, stamp, *hooks_,
                         reliability_.corrupt_stores);
    reliability_.writes_dropped += d;
    dropped += d;
    fault_work += r;
  }
  if (masked != 0) {
    obs_count("majority.votes.masked", masked);
  }
  if (uncorrectable != 0) {
    obs_count("majority.votes.uncorrectable", uncorrectable);
  }
  if (erased_total != 0) {
    obs_count("majority.erasures", erased_total);
  }
  if (dropped != 0) {
    obs_count("majority.stores.dropped", dropped);
  }
  return fault_work;
}

pram::MemStepCost MajorityMemory::serve(const pram::AccessPlan& plan,
                                        pram::ServeContext& ctx) {
  const std::span<pram::Word> read_values = ctx.read_values();
  PRAMSIM_ASSERT(plan.reads.size() == read_values.size());
  const std::uint64_t stamp = advance_step_clock();
  ctx.stamp_step(stamp);
  obs_count("majority.steps");
  obs_count("majority.reads", plan.reads.size());
  obs_count("majority.writes", plan.writes.size());
  obs::PhaseSet* timing = obs_timing();

  // The plan's request list is the access union (reads first, then
  // write-only variables); requesters are synthesized round-robin over
  // the simulating processors.
  request_scratch_.clear();
  request_scratch_.reserve(plan.requests.size());
  for (std::uint32_t j = 0; j < plan.requests.size(); ++j) {
    request_scratch_.push_back(
        {plan.requests[j].var, ProcId(j % n_processors_),
         plan.requests[j].op});
  }

  // The engine schedule is a global protocol over every request.
  {
    obs::ScopedPhase timer(timing, obs::Phase::kEngineSchedule);
    engine_->run_step_into(request_scratch_, engine_scratch_);
  }
  const EngineResult& result = engine_scratch_;
  time_stats_.add(static_cast<double>(result.time));
  last_stats_ = result.stats;

  const std::uint32_t r = engine_->map().redundancy();
  std::uint64_t fault_work = 0;
  obs::ScopedPhase value_timer(timing, obs::Phase::kValuePhase);
  if (hooks_ == nullptr) {
    for (std::size_t i = 0; i < plan.reads.size(); ++i) {
      read_values[i] =
          store_
              .freshest(plan.reads[i],
                        result.accessed_mask[plan.read_request[i]])
              .value;
    }
    for (std::size_t i = 0; i < plan.writes.size(); ++i) {
      const std::uint64_t mask =
          result.accessed_mask[plan.write_request[i]];
      for (std::uint32_t copy = 0; copy < r; ++copy) {
        if ((mask >> copy) & 1ULL) {
          store_.write(plan.writes[i].var, copy, plan.writes[i].value,
                       stamp);
        }
      }
    }
  } else {
    fault_work = degraded_serve(plan, ctx);
  }

  return pram::MemStepCost{.time = result.time,
                           .work = result.work + fault_work,
                           .live_after_stage1 = result.stats.live_after_stage1,
                           .max_queue = result.stats.max_queue};
}

pram::Word MajorityMemory::peek(VarId var) const {
  if (hooks_ != nullptr) {
    // A fault-aware verifier reads the way the degraded protocol does,
    // at the current step of the fault clock.
    std::vector<ModuleId> modules(engine_->map().redundancy());
    copies_into_current(var, modules);
    return store_.vote(var, modules, steps_served(), *hooks_).winner.value;
  }
  return store_.ground_truth(var).value;
}

void MajorityMemory::poke(VarId var, pram::Word value) {
  // Out-of-band initialization: set every copy so the poke is the ground
  // truth regardless of which copies later reads access. Under fault
  // injection, initialization is subject to the same faults as any other
  // store (modules dead at the current step never learn the value).
  if (hooks_ != nullptr) {
    const std::uint64_t stamp = steps_served();
    std::vector<ModuleId> modules(engine_->map().redundancy());
    copies_into_current(var, modules);
    reliability_.writes_dropped +=
        store_.store_all(var, modules, value, stamp, stamp, stamp,
                         *hooks_, reliability_.corrupt_stores);
    return;
  }
  for (std::uint32_t copy = 0; copy < engine_->map().redundancy(); ++copy) {
    store_.write(var, copy, value, steps_served());
  }
}

pram::ScrubResult MajorityMemory::scrub(std::uint64_t budget) {
  pram::ScrubResult result;
  if (hooks_ == nullptr || budget == 0) {
    return result;
  }
  const std::uint64_t stamp = steps_served();
  const std::uint32_t r = engine_->map().redundancy();
  const std::uint64_t m = engine_->map().num_vars();
  std::vector<ModuleId> modules(r);
  for (std::uint64_t n = 0; n < budget && n < m; ++n) {
    const VarId var(static_cast<std::uint32_t>(scrub_cursor_));
    scrub_cursor_ = (scrub_cursor_ + 1) % m;
    ++result.scanned;
    copies_into_current(var, modules);
    const auto outcome = store_.vote(var, modules, stamp, *hooks_);
    result.work += outcome.survivors;
    if (outcome.survivors == 0 ||
        (outcome.erased == 0 && outcome.dissenting == 0)) {
      // Fully healthy (nothing to do) or fully lost (nothing to rebuild
      // from — the data is gone until the next write recreates it).
      continue;
    }
    // A re-store only helps when some live, NON-stuck copy disagrees
    // with the winner (stale or corrupted storage): stuck copies read
    // their stuck value no matter what is written, so a pass whose only
    // dissent is stuck-at must not rewrite the variable forever.
    bool store_helps = false;
    if (!store_.touched(var)) {
      // Untouched row: every real copy is the initial {0, 0} == the
      // winner, so relocation alone restores full redundancy and the
      // sparse store stays sparse.
    } else if (outcome.erased > 0) {
      // Copies on dead modules missed write-through while dead: after
      // relocation their stored words are stale and must be re-stamped.
      store_helps = true;
    } else {
      for (std::uint32_t copy = 0; copy < r && !store_helps; ++copy) {
        if (hooks_->module_dead(modules[copy], stamp)) {
          continue;
        }
        pram::Word stuck = 0;
        if (hooks_->stuck_at(var.index(), copy, stamp, stuck)) {
          continue;
        }
        const Copy& held = store_.at(var, copy);
        store_helps = held.value != outcome.winner.value ||
                      held.stamp != outcome.winner.stamp;
      }
    }
    if (outcome.erased == 0 && !store_helps) {
      continue;  // steady state: only unfixable (stuck) dissent remains
    }
    // Re-home the copies sitting on dead modules; copies whose relocated
    // module later died are re-homed again.
    std::uint32_t relocated = 0;
    for (std::uint32_t copy = 0; copy < r; ++copy) {
      if (!hooks_->module_dead(modules[copy], stamp)) {
        continue;
      }
      ModuleId replacement;
      if (pram::pick_healthy_module(*hooks_, stamp,
                                    engine_->map().num_modules(), map_salt_,
                                    var.index(), copy, modules,
                                    replacement)) {
        obs_event(obs::EventKind::kRelocation, var.index(), copy,
                  modules[copy].index(), replacement.index());
        relocated_[var.index() * r + copy] = replacement;
        modules[copy] = replacement;
        ++relocated;
      }
    }
    result.relocated += relocated;
    reliability_.units_relocated += relocated;
    if (!store_.touched(var)) {
      // Relocation-only repair: the initial copies already agree with
      // the winner, so writing them would just densify the store.
      if (relocated > 0) {
        ++result.repaired;
        ++reliability_.units_repaired;
        obs_event(obs::EventKind::kScrubRepair, var.index(), relocated);
      }
      continue;
    }
    // Re-stamp the vote winner onto every live copy at the current step
    // (strictly fresher than any committed write, so the repair wins
    // future freshness ties). The corruption re-roll uses a dedicated
    // counter: a store that corrupted at its protocol stamp rolls fresh
    // here instead of deterministically re-corrupting.
    const std::uint64_t reroll = (1ULL << 63) | scrub_stores_++;
    const std::uint32_t dropped =
        store_.store_all(var, modules, outcome.winner.value, stamp, reroll,
                         stamp, *hooks_, reliability_.corrupt_stores);
    result.work += r - dropped;
    ++result.repaired;
    ++reliability_.units_repaired;
    obs_event(obs::EventKind::kScrubRepair, var.index(), relocated);
  }
  return result;
}

void MajorityMemory::snapshot_body(pram::SnapshotSink& sink) {
  put_u32(sink, store_.redundancy());

  std::vector<std::uint64_t> vars(store_.rows().begin(),
                                  store_.rows().end());
  std::sort(vars.begin(), vars.end());
  put_u64(sink, vars.size());
  for (const std::uint64_t var : vars) {
    put_u64(sink, var);
    const auto row = store_.row(var);
    // Copy is padding-free (static_assert in copy_store.hpp), so the row
    // serializes as one raw span of (value, stamp) pairs.
    sink.write(row.data(), row.size() * sizeof(Copy));
  }

  std::vector<std::uint64_t> keys;
  keys.reserve(relocated_.size());
  // pramlint: ordered-fold (keys collected then sorted before emission)
  for (const auto& [key, module] : relocated_) {
    (void)module;
    keys.push_back(key);
  }
  std::sort(keys.begin(), keys.end());
  put_u64(sink, keys.size());
  for (const std::uint64_t key : keys) {
    put_u64(sink, key);
    put_u32(sink, relocated_.at(key).value());
  }

  put_u64(sink, scrub_cursor_);
  put_u64(sink, scrub_stores_);
}

bool MajorityMemory::restore_body(pram::SnapshotSource& source) {
  std::uint32_t r = 0;
  if (!get_u32(source, r) || r != store_.redundancy()) {
    return false;
  }

  store_.clear_rows();
  std::uint64_t n_rows = 0;
  if (!get_u64(source, n_rows)) {
    return false;
  }
  std::vector<Copy> row(r);
  for (std::uint64_t i = 0; i < n_rows; ++i) {
    std::uint64_t var = 0;
    if (!get_u64(source, var) || var >= store_.num_vars() ||
        !source.read(row.data(), r * sizeof(Copy))) {
      return false;
    }
    store_.restore_row(var, row);
  }

  relocated_.clear();
  std::uint64_t n_relocated = 0;
  if (!get_u64(source, n_relocated)) {
    return false;
  }
  for (std::uint64_t i = 0; i < n_relocated; ++i) {
    std::uint64_t key = 0;
    std::uint32_t module = 0;
    if (!get_u64(source, key) || !get_u32(source, module)) {
      return false;
    }
    relocated_.insert_or_assign(key, ModuleId(module));
  }

  return get_u64(source, scrub_cursor_) && get_u64(source, scrub_stores_);
}

}  // namespace pramsim::majority
