#include "network/router.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace pramsim::net {

RouteReport Router::route(std::span<Packet> packets, std::uint64_t max_cycles,
                          std::uint64_t start_cycle) {
  PRAMSIM_ASSERT(packets.size() <= std::numeric_limits<std::uint32_t>::max());
  RouteReport report;
  live_.clear();
  held_.clear();
  for (std::uint32_t i = 0; i < packets.size(); ++i) {
    Packet& packet = packets[i];
    if (!packet.delivered() && packet.next_edge < packet.path.size()) {
      packet.waiting_since = std::max(packet.injected_at, start_cycle);
      const Flight flight{.next = packet.path.data() + packet.next_edge,
                          .end = packet.path.data() + packet.path.size(),
                          .waiting_since = packet.waiting_since,
                          .id = packet.id,
                          .packet = i};
      (packet.injected_at <= start_cycle ? live_ : held_).push_back(flight);
    } else if (!packet.delivered()) {
      packet.delivered_at = start_cycle;  // empty path: delivered at once
      ++report.delivered;
    }
  }
  std::sort(held_.begin(), held_.end(), [&](const Flight& a, const Flight& b) {
    const auto ta = packets[a.packet].injected_at;
    const auto tb = packets[b.packet].injected_at;
    return ta < tb || (ta == tb && a.packet < b.packet);
  });

  // FIFO: the packet blocked longest wins; ties by id, then by position.
  auto precedes = [](const Flight& a, const Flight& b) {
    if (a.waiting_since != b.waiting_since) {
      return a.waiting_since < b.waiting_since;
    }
    return a.id != b.id ? a.id < b.id : a.packet < b.packet;
  };

  std::size_t next_held = 0;
  std::uint64_t cycle = start_cycle;
  std::uint64_t latency_sum = 0;
  while ((!live_.empty() || next_held < held_.size()) &&
         cycle < start_cycle + max_cycles) {
    while (next_held < held_.size() &&
           packets[held_[next_held].packet].injected_at <= cycle) {
      live_.push_back(held_[next_held++]);
    }
    claims_.clear();
    for (std::uint32_t f = 0; f < live_.size(); ++f) {
      auto [claim, fresh] =
          claims_.try_emplace(live_[f].next->raw, Claim{f, 1});
      if (!fresh) {
        ++claim->queue;
        if (precedes(live_[f], live_[claim->flight])) {
          claim->flight = f;
        }
      }
    }
    for (const auto slot : claims_.touched()) {
      const Claim& claim = claims_.value_at(slot);
      report.max_edge_queue =
          std::max<std::uint64_t>(report.max_edge_queue, claim.queue);
      Flight& flight = live_[claim.flight];
      ++flight.next;
      ++report.total_hops;
      flight.waiting_since = cycle + 1;
      if (flight.next == flight.end) {
        Packet& p = packets[flight.packet];
        p.next_edge = static_cast<std::uint32_t>(p.path.size());
        p.waiting_since = cycle + 1;
        p.delivered_at = cycle + 1;
        ++report.delivered;
        const std::uint64_t latency = p.delivered_at - p.injected_at;
        latency_sum += latency;
        report.max_latency = std::max(report.max_latency, latency);
      }
    }
    std::erase_if(live_, [](const Flight& f) { return f.next == f.end; });
    ++cycle;
  }
  // Cut off by max_cycles: write the survivors' progress back.
  for (const Flight& flight : live_) {
    Packet& p = packets[flight.packet];
    p.next_edge = static_cast<std::uint32_t>(flight.next - p.path.data());
    p.waiting_since = flight.waiting_since;
  }

  report.cycles = cycle - start_cycle;
  if (report.delivered > 0) {
    report.mean_latency =
        static_cast<double>(latency_sum) / static_cast<double>(report.delivered);
  }
  return report;
}

RouteReport route_all(std::span<Packet> packets, std::uint64_t max_cycles,
                      std::uint64_t start_cycle) {
  Router router;
  return router.route(packets, max_cycles, start_cycle);
}

}  // namespace pramsim::net
