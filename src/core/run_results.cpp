// Run aggregation for the driver (core/driver.hpp): folding results,
// the fault-rate sweep (a composition of whole runs), and the kill-point
// vocabulary. No step is served here — every run's step loop lives in
// driver.cpp.
#include "core/driver.hpp"

#include <utility>

namespace pramsim::core {

void TraceRunResult::merge(const TraceRunResult& other) {
  time.merge(other.time);
  work.merge(other.work);
  live_after_stage1.merge(other.live_after_stage1);
  max_queue.merge(other.max_queue);
  steps += other.steps;
  reliability.merge(other.reliability);
  scrub_passes += other.scrub_passes;
  scrub.merge(other.scrub);
  obs.merge(other.obs);
  if (other.breaking_fault_rate >= 0.0 &&
      (breaking_fault_rate < 0.0 ||
       other.breaking_fault_rate < breaking_fault_rate)) {
    breaking_fault_rate = other.breaking_fault_rate;
  }
}

FaultSweepResult SimulationPipeline::run_fault_sweep(
    const FaultSweepOptions& options) const {
  FaultSweepResult result;
  result.total.storage_factor = instance_.memory->storage_redundancy();
  for (const double rate : options.rates) {
    const auto level_spec = faults::at_rate(options.proto, rate);
    FaultLevelResult level;
    level.rate = rate;
    level.run = run_with_faults(level_spec, options.stress);
    if (level.run.reliability.wrong_reads > 0) {
      level.run.breaking_fault_rate = rate;
    }
    if (result.first_uncorrectable_rate < 0.0 &&
        level.run.reliability.uncorrectable > 0) {
      result.first_uncorrectable_rate = rate;
    }
    if (options.measure_recovery && !level_spec.inert()) {
      level.recovery_steps =
          run_recovery(level_spec, options.recovery).recovery_steps;
      if (level.recovery_steps > result.worst_recovery_steps) {
        result.worst_recovery_steps = level.recovery_steps;
      }
    }
    result.total.merge(level.run);
    result.levels.push_back(std::move(level));
  }
  return result;
}

const char* to_string(KillPoint point) {
  switch (point) {
    case KillPoint::kCleanShutdown: return "clean_shutdown";
    case KillPoint::kMidWalAppend: return "mid_wal_append";
    case KillPoint::kAfterWalFlush: return "after_wal_flush";
    case KillPoint::kMidCheckpoint: return "mid_checkpoint";
    case KillPoint::kAfterCheckpointPreTruncate:
      return "after_checkpoint_pre_truncate";
  }
  return "unknown";
}

std::vector<KillPoint> all_kill_points() {
  return {KillPoint::kCleanShutdown, KillPoint::kMidWalAppend,
          KillPoint::kAfterWalFlush, KillPoint::kMidCheckpoint,
          KillPoint::kAfterCheckpointPreTruncate};
}

}  // namespace pramsim::core
