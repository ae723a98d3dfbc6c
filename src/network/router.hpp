// Cycle-accurate synchronous store-and-forward router.
//
// Model (the BDN/DMBDN timing rules the paper's theorems count):
//  * every directed channel (EdgeKey) carries at most one packet per cycle;
//  * packets traverse their precomputed path one edge per cycle when
//    unblocked; blocked packets queue (FIFO by blocking time, ties by
//    packet id — deterministic);
//  * a packet may carry an `injected_at` cycle before which it is held at
//    its source (used to serialize a processor's own injections).
//
// Cost model: the network is never materialized. A `Router` keeps its
// scratch across calls — an epoch-cleared claim table keyed by EdgeKey
// (util::ScratchMap: O(1) clear per cycle, sized by the packets in
// flight) and the in-flight list, one entry per packet holding a cursor
// into its path — so a warmed-up Router allocates nothing. Packets held
// for a later injection wait in a queue ordered by `injected_at` and join
// the in-flight list on their cycle; delivered packets leave it. A cycle
// therefore costs one table probe per in-flight packet plus one update
// per claimed edge: work follows traffic, never network size or the
// delivered/held remainder of the batch, so multi-million-switch 2DMOTs
// cost nothing beyond their traffic. Packet state is written back when a
// packet is delivered or the call ends.
//
// The FIFO winner of an edge is the minimum of (waiting_since, id,
// position in the batch) — a strict total order — so the outcome does not
// depend on the order claims are made or visited; each packet claims one
// edge per cycle, so the per-winner updates commute.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "network/topology.hpp"
#include "util/scratch_map.hpp"

namespace pramsim::net {

struct Packet {
  std::uint32_t id = 0;  ///< unique; deterministic tie-break
  std::vector<EdgeKey> path;
  std::uint64_t injected_at = 0;

  // Engine-owned state.
  std::uint32_t next_edge = 0;
  std::uint64_t waiting_since = 0;
  std::uint64_t delivered_at = std::numeric_limits<std::uint64_t>::max();

  [[nodiscard]] bool delivered() const {
    return delivered_at != std::numeric_limits<std::uint64_t>::max();
  }
  /// Reset the engine-owned state so the packet routes again from its
  /// source; the path (and its capacity) is kept.
  void rewind() {
    next_edge = 0;
    waiting_since = 0;
    delivered_at = std::numeric_limits<std::uint64_t>::max();
  }
};

struct RouteReport {
  std::uint64_t cycles = 0;         ///< cycles elapsed until completion
  std::uint64_t delivered = 0;      ///< packets that finished their path
  std::uint64_t total_hops = 0;     ///< edges traversed by all packets
  std::uint64_t max_edge_queue = 0; ///< peak packets contending one edge
  double mean_latency = 0.0;        ///< mean delivered_at - injected_at
  std::uint64_t max_latency = 0;
};

/// Reusable routing scratch; hold one per caller that routes repeatedly.
class Router {
 public:
  /// Route packets until all are delivered or `max_cycles` elapse.
  /// Packet state is updated in place (delivered_at, next_edge).
  /// `start_cycle` offsets the clock so phased protocols can keep one
  /// global time base.
  [[nodiscard]] RouteReport route(std::span<Packet> packets,
                                  std::uint64_t max_cycles = 1'000'000,
                                  std::uint64_t start_cycle = 0);

 private:
  /// A packet in this call, with its position on its path.
  struct Flight {
    const EdgeKey* next = nullptr;  ///< the edge it claims next
    const EdgeKey* end = nullptr;   ///< past its last edge
    std::uint64_t waiting_since = 0;
    std::uint32_t id = 0;
    std::uint32_t packet = 0;  ///< batch position
  };
  struct Claim {
    std::uint32_t flight = 0;  ///< current FIFO winner (live_ index)
    std::uint32_t queue = 0;   ///< contenders this cycle
  };
  util::ScratchMap<Claim> claims_;  ///< EdgeKey -> claim, per cycle
  std::vector<Flight> live_;  ///< injected, undelivered packets
  std::vector<Flight> held_;  ///< awaiting injection, by injected_at
};

/// One-shot `Router::route` with fresh scratch.
[[nodiscard]] RouteReport route_all(std::span<Packet> packets,
                                    std::uint64_t max_cycles = 1'000'000,
                                    std::uint64_t start_cycle = 0);

}  // namespace pramsim::net
