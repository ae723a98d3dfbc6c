#include "majority/engine.hpp"

#include <utility>

#include "util/assert.hpp"

namespace pramsim::majority {

DmmpcEngine::DmmpcEngine(std::shared_ptr<const memmap::MemoryMap> map,
                         SchedulerConfig config,
                         std::uint64_t cycles_per_round)
    : map_(std::move(map)),
      config_(config),
      cycles_per_round_(cycles_per_round) {
  PRAMSIM_ASSERT(map_ != nullptr);
  PRAMSIM_ASSERT(map_->redundancy() == 2 * config_.c - 1);
  PRAMSIM_ASSERT(cycles_per_round_ >= 1);
}

void DmmpcEngine::run_step_into(std::span<const VarRequest> requests,
                                EngineResult& out) {
  schedule_step_into(*map_, requests, config_, out, scratch_);
  out.time = out.stats.phases * cycles_per_round_;
}

}  // namespace pramsim::majority
