// AccessPlan: one P-RAM step, combined and pre-grouped for the serve path.
//
// MemorySystem::serve(plan, ctx) is the single entry through which every
// memory organization serves a step, and the plan is its input: the
// step's distinct reads and writes plus the bookkeeping every scheme
// would otherwise rebuild — the variable union, the read/write joins,
// and the grouping by target module/block — computed ONCE, stored SoA,
// and shared by every layer that serves the step. pram::PlanAssembler is
// the one function that builds that bookkeeping; core::PlanBuilder
// (combining a raw batch), MemorySystem::step (raw distinct lists) and
// the cache/fault wrappers (residual and degraded plans) all end in it.
//
// Lifetime: the request/join/group spans alias the producing assembler's
// arena and are valid until its next assemble(); reads/writes alias the
// lists it was handed. Plans are immutable once built, so a generator
// thread can build plan N+1 while a worker serves plan N (the
// double-buffered pipeline in core::SimulationPipeline).
#pragma once

#include <cstdint>
#include <span>

#include "pram/types.hpp"

namespace pramsim::pram {

/// One distinct variable's combined access for the step. `op` follows the
/// write-wins convention (kWrite when any processor writes the variable);
/// `is_read` is true when any processor also reads it, so schemes that
/// need the full read/write split (e.g. IDA block staging) don't lose the
/// read under a concurrent write.
struct PlanRequest {
  VarId var;
  AccessOp op = AccessOp::kRead;
  bool is_read = false;
};

/// The combined step: distinct reads, CW-resolved distinct writes, and
/// the precomputed joins between them and the request union.
struct AccessPlan {
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  /// Distinct read variables (first-appearance order when combined by
  /// core::PlanBuilder).
  std::span<const VarId> reads;
  /// Distinct writes with their winning (lowest-writer-id) values.
  std::span<const VarWrite> writes;

  /// The variable union: every read variable (in reads order) followed by
  /// the write-only variables (in writes order) — the request list the
  /// majority protocols serve. requests[i] serves reads[i] for every i.
  std::span<const PlanRequest> requests;
  /// read_request[i] = index into requests serving reads[i].
  std::span<const std::uint32_t> read_request;
  /// write_request[i] = index into requests committing writes[i].
  std::span<const std::uint32_t> write_request;
  /// request_write[j] = index into writes for request j, or kNone when
  /// the request is read-only (the inverse join of write_request).
  std::span<const std::uint32_t> request_write;

  // ----- target grouping (populated iff the target memory opted in via
  // MemorySystem::wants_plan_groups) -----
  //
  // Requests bucketed by MemorySystem::plan_group_of (module / block /
  // shard key), CSR layout: group g spans
  //   group_requests[group_offsets[g] .. group_offsets[g+1])
  // with keys ascending in group_keys[g]; within a group, requests keep
  // their plan order.
  std::span<const std::uint64_t> group_keys;
  std::span<const std::uint32_t> group_offsets;
  std::span<const std::uint32_t> group_requests;
  /// request_group[j] = index of the group containing request j (kNone
  /// when grouping was skipped).
  std::span<const std::uint32_t> request_group;

  [[nodiscard]] std::size_t num_groups() const { return group_keys.size(); }
  [[nodiscard]] bool grouped() const { return !group_offsets.empty(); }

  /// Group g's requests (indices into `requests`), in plan order.
  [[nodiscard]] std::span<const std::uint32_t> group(std::size_t g) const {
    return group_requests.subspan(group_offsets[g],
                                  group_offsets[g + 1] - group_offsets[g]);
  }
};

}  // namespace pramsim::pram
