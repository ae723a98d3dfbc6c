// PlanAssembler: distinct reads + distinct writes -> AccessPlan.
//
// Every producer of an AccessPlan ends the same way: it has one step's
// distinct read variables and distinct (already CW-resolved) writes, and
// needs the request union, the read/write joins, and — when the target
// memory groups its work — the CSR module groups. This class is that
// tail, the one place it is implemented. Its callers:
//
//   * core::PlanBuilder::build, after combining a raw access batch;
//   * MemorySystem::step, the raw-list convenience entry;
//   * cache::CachedMemory, for the residual plan of misses + write-backs;
//   * faults::FaultableMemory, for the wrapper-level degraded plan.
//
// Request order: every read in `reads` order, then the write-only
// variables in `writes` order. A variable in both lists is ONE request
// (op = kWrite, is_read = true).
//
// Lifetime: plan.reads / plan.writes alias the caller's input spans; the
// request list, joins and groups live in this assembler's arena. The plan
// is valid until the next assemble() on this instance or until the input
// spans die, whichever comes first.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "pram/access_plan.hpp"
#include "pram/types.hpp"
#include "util/arena.hpp"
#include "util/scratch_map.hpp"

namespace pramsim::pram {

class MemorySystem;

class PlanAssembler {
 public:
  PlanAssembler() = default;
  PlanAssembler(const PlanAssembler&) = delete;
  PlanAssembler& operator=(const PlanAssembler&) = delete;

  /// Assemble one step. `reads` and `writes` must each hold distinct
  /// variables. Groups are emitted iff target.wants_plan_groups(), keyed
  /// by target.plan_group_of.
  const AccessPlan& assemble(std::span<const VarId> reads,
                             std::span<const VarWrite> writes,
                             const MemorySystem& target);

  /// Same, for callers that already know the read/write join:
  /// write_read[w] is the index in `reads` of writes[w].var, or
  /// AccessPlan::kNone when that variable is not read this step.
  const AccessPlan& assemble(std::span<const VarId> reads,
                             std::span<const VarWrite> writes,
                             std::span<const std::uint32_t> write_read,
                             const MemorySystem& target);

  /// Most recently assembled plan.
  [[nodiscard]] const AccessPlan& plan() const { return plan_; }

 private:
  /// var -> read index (or kWriteOnly), epoch-cleared per assemble.
  util::ScratchMap<std::uint32_t> index_;
  std::vector<std::uint32_t> write_read_;
  /// (group key, request index) pairs, sorted to derive the CSR groups.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> sort_scratch_;
  util::Arena arena_;
  AccessPlan plan_;
};

}  // namespace pramsim::pram
