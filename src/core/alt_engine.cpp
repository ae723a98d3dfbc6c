#include "core/alt_engine.hpp"

#include <utility>

#include "util/assert.hpp"
#include "util/math.hpp"

namespace pramsim::core {

AltBdnEngine::AltBdnEngine(std::shared_ptr<const memmap::MemoryMap> map,
                           majority::SchedulerConfig scheduler)
    : map_(std::move(map)),
      scheduler_(scheduler),
      network_(sortnet::batcher_sort(
          util::is_pow2(scheduler.n_processors)
              ? scheduler.n_processors
              : static_cast<std::uint32_t>(
                    util::next_pow2(scheduler.n_processors)))) {
  PRAMSIM_ASSERT(map_ != nullptr);
  PRAMSIM_ASSERT(map_->redundancy() == 2 * scheduler_.c - 1);
  PRAMSIM_ASSERT_MSG(map_->num_modules() == scheduler_.n_processors,
                     "the BDN hosts one module per processor node");
  const auto log_n = static_cast<std::uint64_t>(
      scheduler_.n_processors > 1
          ? util::ilog2_ceil(scheduler_.n_processors)
          : 1);
  cycles_per_round_ = network_.depth() + 2 * log_n;
}

void AltBdnEngine::run_step_into(
    std::span<const majority::VarRequest> requests,
    majority::EngineResult& out) {
  majority::schedule_step_into(*map_, requests, scheduler_, schedule_scratch_,
                               scratch_);
  majority::fill_engine_result(schedule_scratch_, cycles_per_round_, out);
}

}  // namespace pramsim::core
