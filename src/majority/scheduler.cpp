#include "majority/scheduler.hpp"

#include <algorithm>
#include <unordered_set>

#include "util/assert.hpp"

namespace pramsim::majority {

namespace {

/// One contention round: every request in `active` probes its unaccessed
/// copies; each module serves one probe (lowest (var, copy) wins; ties
/// are resolved identically on every platform since the claim map
/// iterates in insertion order). Returns number of probes served;
/// updates the scratch request state and the live-request count.
std::uint64_t contention_round(std::span<const VarRequest> requests,
                               ScheduleScratch& s,
                               std::span<const std::uint32_t> active,
                               std::uint32_t r, std::uint32_t c,
                               std::uint64_t& live,
                               std::uint64_t& max_module_queue) {
  s.claims.clear();
  for (const auto idx : active) {
    if (s.dead[idx]) {
      continue;
    }
    const std::span<const ModuleId> copies{s.copies.data() +
                                               static_cast<std::size_t>(idx) * r,
                                           r};
    for (std::uint32_t i = 0; i < r; ++i) {
      if ((s.mask[idx] >> i) & 1ULL) {
        continue;  // already accessed
      }
      const std::uint32_t module = copies[i].value();
      auto [claim, fresh] =
          s.claims.try_emplace(module, ScheduleScratch::Claim{idx, i, 1});
      if (!fresh) {
        ++claim->queue;
        const bool better =
            requests[idx].var.value() < requests[claim->request].var.value() ||
            (requests[idx].var.value() ==
                 requests[claim->request].var.value() &&
             i < claim->copy);
        if (better) {
          claim->request = idx;
          claim->copy = i;
        }
      }
    }
  }
  std::uint64_t served = 0;
  for (const auto slot : s.claims.touched()) {
    const ScheduleScratch::Claim& winner = s.claims.value_at(slot);
    max_module_queue = std::max<std::uint64_t>(max_module_queue,
                                               winner.queue);
    const std::uint32_t idx = winner.request;
    if (s.dead[idx]) {
      continue;  // died earlier this same round via another module
    }
    s.mask[idx] |= (1ULL << winner.copy);
    ++s.accessed[idx];
    ++served;
    if (s.accessed[idx] >= c) {
      s.dead[idx] = 1;
      --live;
    }
  }
  return served;
}

}  // namespace

void schedule_step_into(const memmap::MemoryMap& map,
                        std::span<const VarRequest> requests,
                        const SchedulerConfig& config,
                        ScheduleResult& result, ScheduleScratch& scratch) {
  const std::uint32_t r = map.redundancy();
  const std::uint32_t c = config.c;
  const std::uint32_t s = std::max<std::uint32_t>(config.cluster_size, 1);
  PRAMSIM_ASSERT(r <= 64);
  PRAMSIM_ASSERT(c >= 1 && c <= r);

  // Reset aggregates in place; the vectors keep their capacity.
  result.rounds = result.stage1_rounds = result.stage2_rounds = 0;
  result.total_copy_accesses = 0;
  result.live_after_stage1 = 0;
  result.max_module_queue = 0;
  result.accessed_mask.assign(requests.size(), 0);
  result.live_per_round.clear();
  if (requests.empty()) {
    return;
  }

#ifndef NDEBUG
  {
    std::unordered_set<std::uint32_t> distinct;
    for (const auto& req : requests) {
      PRAMSIM_ASSERT_MSG(distinct.insert(req.var.value()).second,
                         "requests must be deduplicated");
    }
  }
#endif

  const std::uint32_t count = static_cast<std::uint32_t>(requests.size());
  scratch.cluster.resize(count);
  scratch.member.resize(count);
  scratch.accessed.assign(count, 0);
  scratch.mask.assign(count, 0);
  scratch.dead.assign(count, 0);
  scratch.copies.resize(static_cast<std::size_t>(count) * r);
  for (std::uint32_t i = 0; i < count; ++i) {
    scratch.cluster[i] = requests[i].requester.value() / s;
    scratch.member[i] = requests[i].requester.value() % s;
    map.copies_into(requests[i].var,
                    {scratch.copies.data() + static_cast<std::size_t>(i) * r,
                     r});
  }
  std::uint64_t live = count;

  std::vector<std::uint32_t>& active = scratch.active;
  active.clear();

  if (config.all_at_once) {
    // Ablation mode: every live request probes every round.
    while (live > 0) {
      active.clear();
      for (std::uint32_t i = 0; i < count; ++i) {
        if (!scratch.dead[i]) {
          active.push_back(i);
        }
      }
      result.total_copy_accesses += contention_round(
          requests, scratch, active, r, c, live, result.max_module_queue);
      ++result.rounds;
      result.live_per_round.push_back(live);
    }
    result.stage2_rounds = result.rounds;
  } else {
    // ---- stage 1: interleaved cluster turns --------------------------
    // Group requests by (cluster, member).
    scratch.slots.clear();
    scratch.slots.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::uint64_t key =
          (static_cast<std::uint64_t>(scratch.cluster[i]) << 32) |
          scratch.member[i];
      // Multiple requests can share a slot only if the caller assigned
      // duplicate requester ids; last one wins for turn ordering, and the
      // stage-2 drain guarantees completion regardless.
      *scratch.slots.try_emplace(key, i).first = i;
    }
    const std::uint32_t n_clusters = (config.n_processors + s - 1) / s;
    const std::uint64_t stage1_phases =
        static_cast<std::uint64_t>(config.stage1_turns) * s;
    for (std::uint64_t phase = 0; phase < stage1_phases && live > 0;
         ++phase) {
      active.clear();
      for (std::uint32_t k = 0; k < n_clusters; ++k) {
        const std::uint32_t member =
            static_cast<std::uint32_t>((phase + k) % s);
        const std::uint64_t key = (static_cast<std::uint64_t>(k) << 32) |
                                  member;
        const auto* idx = scratch.slots.find(key);
        if (idx != nullptr && !scratch.dead[*idx]) {
          active.push_back(*idx);
        }
      }
      if (active.empty()) {
        continue;  // no round consumed: nothing was scheduled this phase
      }
      result.total_copy_accesses += contention_round(
          requests, scratch, active, r, c, live, result.max_module_queue);
      ++result.rounds;
      ++result.stage1_rounds;
      result.live_per_round.push_back(live);
    }
    result.live_after_stage1 = live;

    // ---- stage 2: drain leftovers, one variable per cluster ----------
    std::vector<std::uint32_t>& pending = scratch.pending;
    pending.clear();
    for (std::uint32_t i = 0; i < count; ++i) {
      if (!scratch.dead[i]) {
        pending.push_back(i);
      }
    }
    // One live variable assigned per cluster; clusters refill from the
    // pending queue as their variable dies.
    std::size_t next_pending = 0;
    std::vector<std::uint32_t>& assigned = scratch.assigned;
    assigned.clear();
    auto refill = [&] {
      assigned.erase(std::remove_if(assigned.begin(), assigned.end(),
                                    [&](std::uint32_t i) {
                                      return scratch.dead[i] != 0;
                                    }),
                     assigned.end());
      while (assigned.size() < n_clusters && next_pending < pending.size()) {
        const auto i = pending[next_pending++];
        if (!scratch.dead[i]) {
          assigned.push_back(i);
        }
      }
    };
    refill();
    while (!assigned.empty()) {
      result.total_copy_accesses += contention_round(
          requests, scratch, assigned, r, c, live, result.max_module_queue);
      ++result.rounds;
      ++result.stage2_rounds;
      result.live_per_round.push_back(live);
      refill();
    }
  }

  for (std::uint32_t i = 0; i < count; ++i) {
    PRAMSIM_ASSERT(scratch.accessed[i] >= c);
    result.accessed_mask[i] = scratch.mask[i];
  }
}

}  // namespace pramsim::majority
