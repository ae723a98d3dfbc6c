// Phase tracing: scoped wall-clock timers around the engine's serving
// phases (plan build, engine schedule, value phase, decode/encode,
// scrub, oracle) and the driver's traffic generation (adversary, trace
// generation), recorded into per-phase breakdowns.
//
// Two disciplines keep this observability layer honest:
//
//  * Determinism split: phase TIMINGS are wall-clock and therefore never
//    part of any bit-identity contract — only phase COUNTS are (one
//    record per sampled phase execution, which is a pure function of the
//    run). Exporters can exclude the nanosecond fields so deterministic
//    snapshots stay byte-comparable (obs::SnapshotOptions).
//
//  * Kill switch: configuring with -DPRAMSIM_OBS=OFF defines
//    PRAMSIM_OBS_DISABLED, which folds obs::kEnabled to false; every
//    hook helper and ScopedPhase body is behind `if constexpr
//    (obs::kEnabled)`, so the hook points compile to no-ops — no clock
//    reads, no branches — while the obs API itself stays linkable (tests
//    GTEST_SKIP instead of failing to compile).
//
// Thread-safety: a PhaseStats row is single-writer. The double-buffered
// driver exploits this — the plan-generator thread records only
// kTraceGen and kPlanBuild while the serving thread records
// kServe/kScrub — distinct array slots, no synchronization needed.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "util/stopwatch.hpp"

namespace pramsim::obs {

#if defined(PRAMSIM_OBS_DISABLED)
inline constexpr bool kEnabled = false;
#else
inline constexpr bool kEnabled = true;
#endif

/// The engine phases the scoped timers bracket. One enum for the whole
/// repo so exporters and dashboards agree on names.
enum class Phase : std::uint8_t {
  kPlanBuild = 0,   ///< batch -> arena-backed AccessPlan (core::PlanBuilder)
  kServe,           ///< one whole MemorySystem::serve call
  kEngineSchedule,  ///< majority access-engine protocol (global, serial)
  kValuePhase,      ///< value loops: freshest/commit or vote/store
  kDecode,          ///< IDA read phase (share gather + block decode)
  kEncode,          ///< IDA write phase (re-encode + share scatter)
  kScrub,           ///< one background scrub pass
  kOracle,          ///< FaultableMemory trace-consistency check
  kAdversary,       ///< one adversarial batch (core driver's Adversary)
  kTraceGen,        ///< one stress step's batch (pram::make_trace_step)
};

inline constexpr std::size_t kPhaseCount = 10;

[[nodiscard]] const char* to_string(Phase phase);

/// One phase's timing breakdown. `count` is deterministic (a pure
/// function of the run and the sampling interval); the _ns fields are
/// wall-clock.
struct PhaseStats {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t min_ns = ~0ULL;  ///< ~0 until the first record
  std::uint64_t max_ns = 0;

  void record(std::uint64_t ns) {
    ++count;
    total_ns += ns;
    if (ns < min_ns) {
      min_ns = ns;
    }
    if (ns > max_ns) {
      max_ns = ns;
    }
  }

  void merge(const PhaseStats& other) {
    count += other.count;
    total_ns += other.total_ns;
    if (other.min_ns < min_ns) {
      min_ns = other.min_ns;
    }
    if (other.max_ns > max_ns) {
      max_ns = other.max_ns;
    }
  }
};

/// The full per-sink phase table, indexed by Phase.
struct PhaseSet {
  std::array<PhaseStats, kPhaseCount> stats{};

  [[nodiscard]] PhaseStats& operator[](Phase phase) {
    return stats[static_cast<std::size_t>(phase)];
  }
  [[nodiscard]] const PhaseStats& operator[](Phase phase) const {
    return stats[static_cast<std::size_t>(phase)];
  }

  void record(Phase phase, std::uint64_t ns) { (*this)[phase].record(ns); }

  void merge(const PhaseSet& other) {
    for (std::size_t i = 0; i < kPhaseCount; ++i) {
      stats[i].merge(other.stats[i]);
    }
  }

  [[nodiscard]] bool empty() const {
    for (const auto& s : stats) {
      if (s.count != 0) {
        return false;
      }
    }
    return true;
  }
};

/// RAII phase timer: records elapsed ns into `set` at scope exit; a null
/// set (sink absent, or this step not sampled) makes it completely
/// inert — with PRAMSIM_OBS=OFF the constructor and destructor fold to
/// nothing at compile time.
class ScopedPhase {
 public:
  ScopedPhase(PhaseSet* set, Phase phase) {
    if constexpr (kEnabled) {
      set_ = set;
      phase_ = phase;
      if (set_ != nullptr) {
        start_ = util::Stopwatch::now_ns();
      }
    } else {
      (void)set;
      (void)phase;
    }
  }

  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

  ~ScopedPhase() {
    if constexpr (kEnabled) {
      if (set_ != nullptr) {
        set_->record(phase_, util::Stopwatch::now_ns() - start_);
      }
    }
  }

 private:
  PhaseSet* set_ = nullptr;
  Phase phase_ = Phase::kServe;
  std::uint64_t start_ = 0;
};

}  // namespace pramsim::obs
