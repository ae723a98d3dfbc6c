// Context baselines from the paper's §1 comparison, built on real
// substrate objects with measured (not quoted) structural costs:
//
//  * RanadeButterflyEngine — Ranade (1987): probabilistic emulation on a
//    butterfly with one hashed copy per variable (r = 1). Each step's
//    requests route along their bit-fixing paths; the engine charges
//    dilation + congestion - 1 network cycles, the delay pipelined
//    queueing with combining achieves up to constants. Expected time is
//    O(log n); there is NO worst-case guarantee (a known-hash adversary
//    congests one output row), which is the contrast the paper draws
//    with its deterministic schemes.
//
//  * Herley & Bilardi (1988): deterministic simulation on bounded-degree
//    expander-based networks with redundancy r = Theta(log m / log log m)
//    (hb_c below). make_scheme runs it as a majority::DmmpcEngine over an
//    M = n map at that redundancy, each protocol round charged the
//    MEASURED diameter of a concrete random-regular expander (an actual
//    graph, audited for connectivity, diameter and spectral gap —
//    standing in for HB's constructive expanders exactly as the paper
//    describes them: same asymptotics, better constants from
//    randomness).
//
// Mask semantics: RanadeButterflyEngine has r = 1, so accessed_mask is
// always 1 (bit 0); it cannot back a MajorityMemory (which needs odd
// r = 2c-1 >= 1 — r = 1, c = 1 is in fact valid there too).
#pragma once

#include <cstdint>
#include <memory>

#include "majority/engine.hpp"
#include "memmap/memory_map.hpp"
#include "network/butterfly.hpp"

namespace pramsim::core {

class RanadeButterflyEngine final : public majority::AccessEngine {
 public:
  /// `map` must have redundancy 1 and module count == butterfly rows.
  RanadeButterflyEngine(std::shared_ptr<const memmap::MemoryMap> map,
                        std::uint32_t n_processors);

  void run_step_into(std::span<const majority::VarRequest> requests,
                     majority::EngineResult& out) override;

  [[nodiscard]] const memmap::MemoryMap& map() const override {
    return *map_;
  }
  [[nodiscard]] std::uint32_t n_processors() const override {
    return n_processors_;
  }
  [[nodiscard]] const net::ButterflyShape& shape() const { return shape_; }

 private:
  std::shared_ptr<const memmap::MemoryMap> map_;
  std::uint32_t n_processors_;
  net::ButterflyShape shape_;
};

/// HB's redundancy choice: the smallest odd r = 2c-1 with
/// c = max(2, ceil(log2 m / log2 log2 m)).
[[nodiscard]] std::uint32_t hb_c(std::uint64_t m_vars);

}  // namespace pramsim::core
