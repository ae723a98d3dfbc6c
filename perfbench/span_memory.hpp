// Tracing for the benchmark's traced run: named span accumulators and a
// forwarding pram::MemorySystem decorator that records one span per
// serve()/step() crossing a wrapper boundary.
//
// The decorator is placed between the layers a user stacks —
// FaultableMemory, CachedMemory and the scheme — so a layer's self time
// is its span minus the span of the decorator directly inside it. It
// must be transparent: every call forwards verbatim, the step clock
// mirrors the inner memory's, and snapshots carry exactly the inner
// memory's bytes (the decorator adds no frame of its own), so a traced
// run reproduces every deterministic result of the untraced one. The
// benchmark checks that it does, down to the checkpoint and WAL bytes.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "pram/memory_system.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// One boundary's accumulated spans, plus the simulated cost of the
/// calls it covered (what the memory below the boundary returned).
struct Span {
  double seconds = 0.0;
  /// Part of `seconds` covered by child spans (self = seconds - this).
  double child_seconds = 0.0;
  std::uint64_t calls = 0;
  bool open = false;  ///< a call is in progress
  std::uint64_t accesses = 0;  ///< combined reads + writes handed down
  std::uint64_t sim_time = 0;
  std::uint64_t sim_time_max = 0;
  std::uint64_t work = 0;
  std::uint64_t live_after_stage1 = 0;
  std::uint64_t max_queue = 0;
  std::uint64_t max_queue_max = 0;
  std::vector<std::uint64_t> step_times;  ///< simulated time of each call

  [[nodiscard]] double us_per_call() const {
    return calls == 0 ? 0.0 : seconds * 1e6 / static_cast<double>(calls);
  }
  [[nodiscard]] double self_us_per_call() const {
    return calls == 0 ? 0.0
                      : (seconds - child_seconds) * 1e6 /
                            static_cast<double>(calls);
  }
  void add_cost(const pramsim::pram::MemStepCost& cost) {
    sim_time += cost.time;
    sim_time_max = std::max(sim_time_max, cost.time);
    work += cost.work;
    live_after_stage1 += cost.live_after_stage1;
    max_queue += cost.max_queue;
    max_queue_max = std::max(max_queue_max, cost.max_queue);
    step_times.push_back(cost.time);
  }
};

/// Times one scope into a Span when tracing is on; reads no clock when
/// it is off (the traced replay runs once each way to measure what the
/// clock reads cost). When `parent` is open, the scope's time also
/// counts as the parent's child time.
class ScopedSpan {
 public:
  explicit ScopedSpan(Span& span, bool on, Span* parent = nullptr)
      : span_(&span), parent_(parent), on_(on) {
    span_->open = true;
    if (on_) {
      start_ = Clock::now();
    }
  }
  ~ScopedSpan() {
    span_->open = false;
    if (on_) {
      const double dt =
          std::chrono::duration<double>(Clock::now() - start_).count();
      span_->seconds += dt;
      ++span_->calls;
      if (parent_ != nullptr && parent_->open) {
        parent_->child_seconds += dt;
      }
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Span* span_;
  Span* parent_;
  bool on_;
  Clock::time_point start_{};
};

/// Forwarding decorator: every virtual of the engine surface goes to the
/// wrapped memory unchanged; serve() and step() are additionally timed
/// into `span` and their costs accumulated. With a `parent` (the span of
/// the decorator one layer up), calls made while the parent is open are
/// its children; calls made outside it (a wrapper flushing into this
/// layer during a snapshot, say) go to `outside` instead.
class SpanMemory final : public pramsim::pram::MemorySystem {
 public:
  SpanMemory(std::unique_ptr<pramsim::pram::MemorySystem> inner, Span& span,
             bool tracing, Span* parent = nullptr, Span* outside = nullptr)
      : inner_(std::move(inner)),
        span_(&span),
        tracing_(tracing),
        parent_(parent),
        outside_(outside) {}

  pramsim::pram::MemStepCost step(
      std::span<const pramsim::VarId> reads,
      std::span<pramsim::pram::Word> read_values,
      std::span<const pramsim::pram::VarWrite> writes) override {
    Span& target = current();
    pramsim::pram::MemStepCost cost;
    {
      const ScopedSpan timer(target, tracing_, parent_);
      cost = inner_->step(reads, read_values, writes);
    }
    return finish(target, cost, reads.size() + writes.size());
  }

  pramsim::pram::MemStepCost serve(const pramsim::pram::AccessPlan& plan,
                                   pramsim::pram::ServeContext& ctx) override {
    Span& target = current();
    pramsim::pram::MemStepCost cost;
    {
      const ScopedSpan timer(target, tracing_, parent_);
      cost = inner_->serve(plan, ctx);
    }
    return finish(target, cost, plan.reads.size() + plan.writes.size());
  }

  [[nodiscard]] std::uint64_t plan_group_of(pramsim::VarId var) const override {
    return inner_->plan_group_of(var);
  }
  [[nodiscard]] bool wants_plan_groups() const override {
    return inner_->wants_plan_groups();
  }
  [[nodiscard]] std::uint32_t capabilities() const override {
    return inner_->capabilities();
  }
  pramsim::pram::ServeBackend set_serve_backend(
      pramsim::pram::ServeBackend backend) override {
    return inner_->set_serve_backend(backend);
  }
  [[nodiscard]] std::uint64_t size() const override { return inner_->size(); }
  [[nodiscard]] pramsim::pram::Word peek(pramsim::VarId var) const override {
    return inner_->peek(var);
  }
  void poke(pramsim::VarId var, pramsim::pram::Word value) override {
    inner_->poke(var, value);
  }
  [[nodiscard]] double storage_redundancy() const override {
    return inner_->storage_redundancy();
  }
  [[nodiscard]] const pramsim::memmap::MemoryMap* memory_map() const override {
    return inner_->memory_map();
  }
  [[nodiscard]] std::uint32_t num_modules() const override {
    return inner_->num_modules();
  }
  bool set_fault_hooks(const pramsim::pram::FaultHooks* hooks) override {
    return inner_->set_fault_hooks(hooks);
  }
  pramsim::pram::ScrubResult scrub(std::uint64_t budget) override {
    return inner_->scrub(budget);
  }
  [[nodiscard]] pramsim::pram::ReliabilityStats reliability() const override {
    return inner_->reliability();
  }
  [[nodiscard]] std::span<const std::uint8_t> flagged_reads() const override {
    return inner_->flagged_reads();
  }
  [[nodiscard]] std::vector<pramsim::VarId> adversarial_vars(
      std::uint32_t count, std::uint64_t seed) const override {
    return inner_->adversarial_vars(count, seed);
  }
  void set_observer(pramsim::obs::Sink* sink) override {
    pramsim::pram::MemorySystem::set_observer(sink);
    inner_->set_observer(sink);
  }

 protected:
  /// The inner memory's snapshot minus its frame: MemorySystem::snapshot
  /// already wrote an identical frame for this decorator (same magic,
  /// version, mirrored clock and size), so the bytes equal the inner
  /// memory's own snapshot.
  void snapshot_body(pramsim::pram::SnapshotSink& sink) override {
    SkipSink body(sink, kFrameBytes);
    inner_->snapshot(body);
  }

  /// The benchmark restores checkpoints into the undecorated stack
  /// (core::make_memory), which is what checks that the bytes above are
  /// the inner memory's own. A decorated stack refuses a restore rather
  /// than replay the inner frame as a default body.
  [[nodiscard]] bool restore_body(pramsim::pram::SnapshotSource&) override {
    return false;
  }

 private:
  /// MemorySystem::snapshot's frame: u32 magic, u32 version, u64 step
  /// clock, u64 m.
  static constexpr std::size_t kFrameBytes = 24;

  /// Forwards every byte after the first `skip`.
  class SkipSink final : public pramsim::pram::SnapshotSink {
   public:
    SkipSink(pramsim::pram::SnapshotSink& next, std::size_t skip)
        : next_(&next), skip_(skip) {}
    void write(const void* data, std::size_t size) override {
      const auto* bytes = static_cast<const std::uint8_t*>(data);
      const std::size_t dropped = std::min(skip_, size);
      skip_ -= dropped;
      if (size > dropped) {
        next_->write(bytes + dropped, size - dropped);
      }
    }

   private:
    pramsim::pram::SnapshotSink* next_;
    std::size_t skip_;
  };

  /// Mirror the inner step clock (schemes advance theirs once per served
  /// step; a wrapper that skips its inner memory on some step must not
  /// make the two drift), then account the call.
  pramsim::pram::MemStepCost finish(Span& target,
                                    const pramsim::pram::MemStepCost& cost,
                                    std::size_t accesses) {
    while (steps_served() < inner_->steps_served()) {
      advance_step_clock();
    }
    target.accesses += accesses;
    target.add_cost(cost);
    return cost;
  }

  [[nodiscard]] Span& current() const {
    return parent_ != nullptr && outside_ != nullptr && !parent_->open
               ? *outside_
               : *span_;
  }

  std::unique_ptr<pramsim::pram::MemorySystem> inner_;
  Span* span_;
  bool tracing_;
  Span* parent_;
  Span* outside_;
};

}  // namespace perfbench
