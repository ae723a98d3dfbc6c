// PlanBuilder: combines one raw access batch into an arena-backed
// pram::AccessPlan — the reusable execution state of the serve path.
//
// The builder owns the CW-combining scratch (the epoch-stamped dedup
// tables and the winning-writer column) and hands the combined distinct
// lists to its pram::PlanAssembler, which emits the request union, joins
// and module groups. A warmed-up builder combines and groups a step with
// zero heap allocations.
//
// One builder = one plan slot: the emitted plan aliases the builder's
// storage and stays valid until the next build(). The double-buffered
// pipeline keeps two builders and flips between them, letting a generator
// thread build plan N+1 while a worker serves plan N.
#pragma once

#include <cstdint>
#include <vector>

#include "pram/access_plan.hpp"
#include "pram/memory_system.hpp"
#include "pram/plan_assembler.hpp"
#include "pram/types.hpp"
#include "util/scratch_map.hpp"

namespace pramsim::core {

/// One P-RAM step after concurrent-access combining: distinct read
/// variables, and distinct writes with their winning values. A variable
/// both read and written appears in both lists (the read sees the
/// pre-step value; the write commits after).
struct CombinedStep {
  std::vector<VarId> reads;
  std::vector<pram::VarWrite> writes;
};

class PlanBuilder {
 public:
  PlanBuilder() = default;
  PlanBuilder(const PlanBuilder&) = delete;
  PlanBuilder& operator=(const PlanBuilder&) = delete;

  /// Combine `batch` and group it for `memory` (per its plan_group_of /
  /// wants_plan_groups). The returned plan aliases this builder's storage:
  /// valid until the next build() on this builder.
  const pram::AccessPlan& build(const pram::AccessBatch& batch,
                                const pram::MemorySystem& memory);

  /// Most recently built plan.
  [[nodiscard]] const pram::AccessPlan& plan() const {
    return assembler_.plan();
  }

  /// Combine a raw access batch: concurrent reads collapse to one read,
  /// concurrent writes resolve to the lowest-processor-id writer (the
  /// deterministic CW convention used machine-wide). Owning-vector form
  /// of the combining half of build().
  [[nodiscard]] CombinedStep combine(const pram::AccessBatch& batch);

 private:
  /// The combining passes: fill reads_/writes_ from `batch`.
  void combine_into(const pram::AccessBatch& batch);

  /// Per distinct variable of the batch: its row in reads_ / writes_
  /// (AccessPlan::kNone while absent).
  struct Entry {
    std::uint32_t read = pram::AccessPlan::kNone;
    std::uint32_t write = pram::AccessPlan::kNone;
  };
  /// var -> index into entries_, epoch-cleared per build.
  util::ScratchMap<std::uint32_t> index_;
  std::vector<Entry> entries_;
  std::vector<VarId> reads_;
  std::vector<pram::VarWrite> writes_;
  /// Winning writer per write row (CW resolution scratch).
  std::vector<ProcId> writer_;
  /// Per write row: its entry, then (after combining) its read row.
  std::vector<std::uint32_t> write_read_;
  pram::PlanAssembler assembler_;
};

}  // namespace pramsim::core
