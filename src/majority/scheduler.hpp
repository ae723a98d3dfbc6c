// Round scheduler for the majority protocol on module-contention machines
// (MPC / DMMPC: unit module bandwidth, free interconnect).
//
// This is the access-scheduling core of Upfal-Wigderson as organized by
// Luccio-Pietracaprina-Pucci and adopted in the paper (§1, §3):
//
//   * processors are grouped into clusters of 2c-1;
//   * STAGE 1 interleaves the cluster's (up to) 2c-1 member variables over
//     phases, staggered across clusters: in phase t, cluster k works on
//     member (t + k) mod (2c-1), all cluster processors probing the
//     variable's still-unaccessed copies at once;
//   * a variable is live until c of its copies have been accessed, then
//     dead (it stops contending — the key idea);
//   * STAGE 2 drains the leftover live variables, one per cluster,
//     repeating phases until none remain.
//
// Each phase is one machine round: every module serves at most one copy
// access (deterministic tie-break). The returned round count *is* the
// DMMPC simulation time of the step (Theorem 2's measurable); the 2DMOT
// simulators in src/core reuse this scheduler's phase structure but charge
// network cycles per phase instead.
//
// Per DESIGN.md, phase bookkeeping (which variables are live, stage
// transitions) is computed centrally; the cost model charges only the
// module-bandwidth-limited copy accesses, which is what the theorems
// count.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "memmap/memory_map.hpp"
#include "pram/types.hpp"
#include "util/scratch_map.hpp"
#include "util/stats.hpp"
#include "util/strong_id.hpp"

namespace pramsim::majority {

/// One distinct variable's combined access for a step. When the step both
/// reads and writes the variable, the single request carries the write
/// (op = kWrite, requester = the winning writer): the accessed copy set
/// serves the read and then commits the write, so losing the write marker
/// would silently drop the mutation from engine-level simulation.
struct VarRequest {
  VarId var;
  ProcId requester;
  pram::AccessOp op = pram::AccessOp::kRead;
};

struct SchedulerConfig {
  std::uint32_t c = 2;             ///< access threshold (r = 2c-1 expected)
  std::uint32_t cluster_size = 3;  ///< processors per cluster (usually r)
  std::uint32_t n_processors = 1;  ///< n
  /// Stage-1 interleaved turns given to each cluster member before the
  /// stage-2 drain begins (LPP use O(log log n); 2 suffices empirically
  /// and stage 2 mops up stragglers either way).
  std::uint32_t stage1_turns = 2;
  /// Ablation: no clusters — every live variable probes all unaccessed
  /// copies every round (maximal-parallelism upper bound).
  bool all_at_once = false;
};

struct ScheduleResult {
  std::uint64_t rounds = 0;
  std::uint64_t stage1_rounds = 0;
  std::uint64_t stage2_rounds = 0;
  std::uint64_t total_copy_accesses = 0;  ///< work (served probes)
  std::uint64_t live_after_stage1 = 0;
  std::uint64_t max_module_queue = 0;  ///< peak probes at one module/round
  /// Per request: bitmask of which copy indices were accessed (>= c bits
  /// set for every request on return).
  std::vector<std::uint64_t> accessed_mask;
  /// Live-variable count after each round — the decay curve whose
  /// geometric shape is the content of the Upfal-Wigderson progress
  /// argument (driven by the Lemma 2 expansion).
  std::vector<std::uint64_t> live_per_round;
};

/// Reusable per-instance scratch for schedule_step_into: request state
/// SoA, the flattened copy table, and the epoch-cleared per-round module
/// claim map. Owning one of these per engine makes a warmed-up scheduler
/// allocation-free per step.
struct ScheduleScratch {
  struct Claim {
    std::uint32_t request = 0;
    std::uint32_t copy = 0;
    std::uint32_t queue = 0;  ///< probes contending at this module
  };
  // Per-request protocol state (SoA mirrors of the old RequestState).
  std::vector<std::uint32_t> cluster;
  std::vector<std::uint32_t> member;
  std::vector<std::uint32_t> accessed;
  std::vector<std::uint64_t> mask;
  std::vector<std::uint8_t> dead;
  /// All requests' copies, flattened: request i's copies live at
  /// [i*r, (i+1)*r).
  std::vector<ModuleId> copies;
  util::ScratchMap<Claim> claims;          ///< module -> winning probe
  util::ScratchMap<std::uint32_t> slots;   ///< (cluster,member) -> request
  std::vector<std::uint32_t> active;
  std::vector<std::uint32_t> pending;
  std::vector<std::uint32_t> assigned;
};

/// Schedule one P-RAM step's worth of distinct-variable requests,
/// reusing `result`'s vectors and `scratch` across steps (a warmed-up
/// caller schedules without touching the heap). Precondition: requests
/// hold distinct variables (combining already done) and
/// map.redundancy() <= 64. Module winners resolve in claim insertion
/// order, identically on every platform; every request ends with >= c
/// accessed copies.
void schedule_step_into(const memmap::MemoryMap& map,
                        std::span<const VarRequest> requests,
                        const SchedulerConfig& config,
                        ScheduleResult& result, ScheduleScratch& scratch);

}  // namespace pramsim::majority
