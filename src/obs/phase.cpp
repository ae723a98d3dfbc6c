#include "obs/phase.hpp"

namespace pramsim::obs {

const char* to_string(Phase phase) {
  switch (phase) {
    case Phase::kPlanBuild: return "plan_build";
    case Phase::kServe: return "serve";
    case Phase::kEngineSchedule: return "engine_schedule";
    case Phase::kValuePhase: return "value_phase";
    case Phase::kDecode: return "decode";
    case Phase::kEncode: return "encode";
    case Phase::kScrub: return "scrub";
    case Phase::kOracle: return "oracle";
    case Phase::kAdversary: return "adversary";
    case Phase::kTraceGen: return "trace_gen";
  }
  return "unknown";
}

}  // namespace pramsim::obs
