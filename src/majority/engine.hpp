// AccessEngine: the cost/scheduling half of a replicated-memory scheme.
//
// Given one P-RAM step's distinct-variable requests, an engine decides
// which >= c copies of each variable get accessed and how much simulated
// time that took on its machine model:
//
//   * DmmpcEngine (here)          - the two-stage round protocol, each
//                                   round charged a fixed time: 1 on the
//                                   DMMPC (Theorem 2) and the UW MPC;
//                                   the measured round cost of a BDN for
//                                   the Alt et al. sorting-network and
//                                   Herley-Bilardi expander baselines;
//   * core::MotEngine             - network cycles on a 2DMOT (Theorem 3,
//                                   the LPP baseline, and the crossbar).
//
// MajorityMemory combines any engine with the timestamped CopyStore to
// form a full pram::MemorySystem.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "majority/scheduler.hpp"
#include "memmap/memory_map.hpp"

namespace pramsim::majority {

class AccessEngine {
 public:
  virtual ~AccessEngine() = default;
  AccessEngine() = default;
  AccessEngine(const AccessEngine&) = delete;
  AccessEngine& operator=(const AccessEngine&) = delete;

  /// Schedule one step into `out`, overwriting every field (engines
  /// with per-instance scratch reuse its buffers across steps).
  /// Requests must hold distinct variables.
  virtual void run_step_into(std::span<const VarRequest> requests,
                             EngineResult& out) = 0;

  [[nodiscard]] virtual const memmap::MemoryMap& map() const = 0;

  /// Simulating processors driving the protocol (cluster assignment of
  /// requests whose requester is synthesized, e.g. by MajorityMemory).
  [[nodiscard]] virtual std::uint32_t n_processors() const { return 1; }
};

/// The two-stage cluster protocol under unit module bandwidth: Theorem
/// 2's engine on the complete bipartite K_{n,M}, and the round engine of
/// every bounded-degree network that realizes one protocol round in a
/// fixed number of cycles (`cycles_per_round`; 1 on the DMMPC).
class DmmpcEngine final : public AccessEngine {
 public:
  DmmpcEngine(std::shared_ptr<const memmap::MemoryMap> map,
              SchedulerConfig config, std::uint64_t cycles_per_round = 1);

  /// Allocation-free after warm-up: schedules into per-instance scratch.
  void run_step_into(std::span<const VarRequest> requests,
                     EngineResult& out) override;

  [[nodiscard]] const memmap::MemoryMap& map() const override {
    return *map_;
  }
  [[nodiscard]] std::uint32_t n_processors() const override {
    return config_.n_processors;
  }
  [[nodiscard]] const SchedulerConfig& config() const { return config_; }
  /// Simulated time charged per protocol round.
  [[nodiscard]] std::uint64_t cycles_per_round() const {
    return cycles_per_round_;
  }

 private:
  std::shared_ptr<const memmap::MemoryMap> map_;
  SchedulerConfig config_;
  std::uint64_t cycles_per_round_;
  ScheduleScratch scratch_;
};

}  // namespace pramsim::majority
