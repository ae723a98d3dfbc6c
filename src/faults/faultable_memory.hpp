// FaultableMemory: degrade ANY pram::MemorySystem under a seeded
// FaultModel (static or dynamic-onset) and verify every surviving read
// against a trace-consistency oracle — the adversity harness the paper's
// redundancy claims are scored on.
//
// Two injection regimes, chosen automatically:
//
//  * replica-level (preferred): the inner scheme accepts the fault hooks
//    (set_fault_hooks returns true) and applies them at its own copy/
//    share granularity — majority voting really sees divergent copies,
//    IDA really interpolates around missing shares. The wrapper then
//    only contributes the oracle check (silent-wrong-read detection).
//
//  * wrapper-level (fallback): for schemes without replica hooks the
//    wrapper degrades traffic externally — writes to dead (synthetic)
//    modules are dropped, stored words may corrupt, stuck cells override
//    reads. Coarser, but it makes every memory organization, even an
//    opaque one, fault-sweepable.
//
// reliability() merges the wrapper's oracle counters with the inner
// scheme's own telemetry, so callers read one struct either way.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "faults/fault_model.hpp"
#include "faults/trace_checker.hpp"
#include "pram/memory_system.hpp"
#include "pram/plan_assembler.hpp"

namespace pramsim::faults {

class FaultableMemory final : public pram::MemorySystem {
 public:
  FaultableMemory(std::unique_ptr<pram::MemorySystem> inner, FaultSpec spec);

  /// Replica-level injection forwards the plan verbatim to the inner
  /// scheme's serve (which applies the hooks at copy/share granularity —
  /// including a group-parallel backend fanning groups across ctx's
  /// executor). Wrapper-level injection degrades the traffic itself and
  /// serves a re-assembled plan without the dropped writes. Either way
  /// the wrapper then runs the oracle pass, reading outage flags from
  /// the context.
  pram::MemStepCost serve(const pram::AccessPlan& plan,
                          pram::ServeContext& ctx) override;

  /// Plan grouping passes through under replica-level injection (the
  /// plan reaches the inner scheme verbatim); wrapper-level injection
  /// re-assembles its own plan for the inner scheme, so grouping the
  /// outer plan would be wasted sort work.
  [[nodiscard]] std::uint64_t plan_group_of(VarId var) const override {
    return inner_->plan_group_of(var);
  }
  [[nodiscard]] bool wants_plan_groups() const override {
    return inner_injects_ && inner_->wants_plan_groups();
  }
  [[nodiscard]] std::uint32_t capabilities() const override {
    return inner_injects_ ? inner_->capabilities() : 0;
  }
  pram::ServeBackend set_serve_backend(
      pram::ServeBackend backend) override {
    return inner_->set_serve_backend(backend);
  }

  [[nodiscard]] std::uint64_t size() const override {
    return inner_->size();
  }
  /// Fault-aware like every replica-level scheme's peek: under
  /// wrapper-level injection a dead synthetic module reads 0 and a
  /// stuck cell reads its stuck value, so peek-based verifiers observe
  /// what the degraded runtime reads observe.
  [[nodiscard]] pram::Word peek(VarId var) const override;
  void poke(VarId var, pram::Word value) override;

  // The widened engine surface passes through to the wrapped scheme, so
  // a FaultableMemory drops into pram::Machine and the pipeline exactly
  // where the bare scheme did.
  [[nodiscard]] double storage_redundancy() const override {
    return inner_->storage_redundancy();
  }
  [[nodiscard]] const memmap::MemoryMap* memory_map() const override {
    return inner_->memory_map();
  }
  [[nodiscard]] std::uint32_t num_modules() const override {
    return inner_->num_modules();
  }
  [[nodiscard]] std::vector<VarId> adversarial_vars(
      std::uint32_t count, std::uint64_t seed) const override {
    return inner_->adversarial_vars(count, seed);
  }
  [[nodiscard]] pram::ReliabilityStats reliability() const override;

  /// One sink observes both layers: the wrapper's oracle/onset events
  /// and the inner scheme's vote/decode/scrub events land in the same
  /// journal (the step-stamp orders them).
  void set_observer(obs::Sink* sink) override {
    pram::MemorySystem::set_observer(sink);
    inner_->set_observer(sink);
  }
  /// Background repair passes through to the wrapped scheme (replica-
  /// level injection repairs at copy/share granularity; wrapper-level
  /// schemes have nothing to rebuild from, so the pass is a no-op).
  pram::ScrubResult scrub(std::uint64_t budget) override;

  [[nodiscard]] const FaultModel& model() const { return model_; }
  /// The realized kill set as (onset step, module), sorted by onset.
  [[nodiscard]] std::span<const std::pair<std::uint64_t, std::uint32_t>>
  onsets() const {
    return onsets_;
  }
  [[nodiscard]] const TraceChecker& checker() const { return checker_; }
  /// True when the wrapped scheme injects at its own replica/share
  /// granularity; false when the wrapper degrades it externally.
  [[nodiscard]] bool replica_level_injection() const {
    return inner_injects_;
  }
  [[nodiscard]] pram::MemorySystem& inner() { return *inner_; }

 protected:
  /// Snapshot: the inner scheme's full nested frame, then the oracle's
  /// committed-write image (sorted), so a recovered wrapper keeps
  /// catching silent wrong reads against the SAME ideal replica — a
  /// crash must not reset the consistency contract. The fault model
  /// itself is seed-derived (rebuilt by construction) and the onset
  /// journal cursor restarts, so a sink attached after restore re-sees
  /// every onset the restored clock has crossed.
  void snapshot_body(pram::SnapshotSink& sink) override;
  [[nodiscard]] bool restore_body(pram::SnapshotSource& source) override;

 private:
  /// Synthetic variable->module placement for wrapper-level injection on
  /// schemes that expose no map of their own.
  [[nodiscard]] ModuleId synthetic_module(VarId var) const;

  /// Journal every fault onset the step clock has crossed (kFaultOnset,
  /// once per dead module). The cursor only advances while a sink is
  /// attached, so a sink attached mid-run still sees every onset.
  void emit_onsets(std::uint64_t step);

  std::unique_ptr<pram::MemorySystem> inner_;
  FaultModel model_;
  TraceChecker checker_;
  bool inner_injects_ = false;
  pram::ReliabilityStats wrapper_stats_;
  /// Wrapper-level serve scratch: the surviving (possibly corrupted)
  /// writes and the plan re-assembled from them.
  std::vector<pram::VarWrite> degraded_writes_;
  pram::PlanAssembler degraded_assembler_;
  /// The realized kill set as (onset step, module), sorted by onset —
  /// the emit_onsets cursor walks it as the step clock advances.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> onsets_;
  std::size_t onset_cursor_ = 0;
};

}  // namespace pramsim::faults
