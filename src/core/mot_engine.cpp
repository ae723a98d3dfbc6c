#include "core/mot_engine.hpp"

#include <algorithm>

#include "core/prom.hpp"
#include "util/assert.hpp"
#include "util/math.hpp"

namespace pramsim::core {

const char* to_string(MotScheme scheme) {
  switch (scheme) {
    case MotScheme::kHpLeaves: return "HP-2DMOT(leaves)";
    case MotScheme::kLppRoots: return "LPP-2DMOT(roots)";
    case MotScheme::kCrossbar: return "HP-crossbar(nxM)";
  }
  return "???";
}

MotEngine::MotEngine(std::shared_ptr<const memmap::MemoryMap> map,
                     MotEngineConfig config)
    : map_(std::move(map)), config_(config) {
  PRAMSIM_ASSERT(map_ != nullptr);
  PRAMSIM_ASSERT(config_.n_processors >= 1);
  PRAMSIM_ASSERT(map_->redundancy() == 2 * config_.c - 1);
  PRAMSIM_ASSERT(map_->redundancy() <= 64);  // State::mask is 64 bits
  const std::uint32_t M = map_->num_modules();
  switch (config_.scheme) {
    case MotScheme::kHpLeaves: {
      const auto side = static_cast<std::uint32_t>(
          util::isqrt(static_cast<std::uint64_t>(M)));
      PRAMSIM_ASSERT_MSG(static_cast<std::uint64_t>(side) * side == M,
                         "kHpLeaves requires a square module count");
      PRAMSIM_ASSERT_MSG(config_.n_processors <= side,
                         "processors sit at the first n row-tree roots");
      shape_ = net::square_mot(static_cast<std::uint32_t>(side));
      const auto depth = static_cast<std::uint64_t>(util::ilog2_floor(side));
      request_hops_ = 3 * depth + 1;
      break;
    }
    case MotScheme::kLppRoots: {
      PRAMSIM_ASSERT_MSG(M == config_.n_processors,
                         "kLppRoots has one module per root processor");
      shape_ = net::square_mot(static_cast<std::uint32_t>(M));
      const auto depth = static_cast<std::uint64_t>(util::ilog2_floor(M));
      request_hops_ = 2 * depth + 1;
      break;
    }
    case MotScheme::kCrossbar: {
      shape_ = net::rect_mot(config_.n_processors, M);
      request_hops_ =
          static_cast<std::uint64_t>(util::ilog2_floor(M)) +
          static_cast<std::uint64_t>(util::ilog2_floor(config_.n_processors)) +
          1;
      break;
    }
  }
  const std::uint64_t round_trip = 2 * request_hops_ - 1;
  phase_budget_ = config_.phase_budget_cycles != 0
                      ? config_.phase_budget_cycles
                      : 2 * round_trip + config_.cluster_size;
  phase_overhead_ =
      config_.phase_overhead_cycles != ~0ULL
          ? config_.phase_overhead_cycles
          : (config_.n_processors > 1
                 ? static_cast<std::uint64_t>(
                       util::ilog2_ceil(config_.n_processors))
                 : 0);
}

void MotEngine::round_trip_into(net::Path& path, std::uint32_t proc,
                                std::uint32_t module) const {
  switch (config_.scheme) {
    case MotScheme::kHpLeaves: {
      const std::uint32_t side = shape_.rows;
      net::hp_request_path_into(path, side, proc, module / side,
                                module % side, config_.lca_turnaround);
      break;
    }
    case MotScheme::kLppRoots:
    case MotScheme::kCrossbar:
      net::root_module_request_path_into(path, shape_, proc, module);
      break;
  }
  // Reply retraces everything but the module port.
  net::append_reply(path);
}

void MotEngine::run_step_into(std::span<const majority::VarRequest> requests,
                              majority::EngineResult& result) {
  const std::uint32_t r = map_->redundancy();
  const std::uint32_t c = config_.c;
  const std::uint32_t s = std::max<std::uint32_t>(config_.cluster_size, 1);

  // Reset in place; the vectors keep their capacity.
  result.time = 0;
  result.work = 0;
  result.accessed_mask.assign(requests.size(), 0);
  result.stats.phases = 0;
  result.stats.stage1_phases = 0;
  result.stats.stage2_phases = 0;
  result.stats.live_after_stage1 = 0;
  result.stats.max_queue = 0;
  result.stats.live_per_phase.clear();
  if (requests.empty()) {
    return;
  }

  // The next packet slot of the current phase, rewound, with id = slot.
  // Slots (and their paths' capacity) are reused across phases and steps.
  std::size_t n_packets = 0;
  auto next_packet = [&]() -> net::Packet& {
    if (n_packets == packets_.size()) {
      packets_.emplace_back();
    }
    net::Packet& packet = packets_[n_packets];
    packet.id = static_cast<std::uint32_t>(n_packets++);
    packet.injected_at = 0;
    packet.rewind();
    return packet;
  };

  // ---- optional P-ROM address-translation phase ----------------------
  // Before any copy access, every requester fetches its variable's map
  // entry from the distributed table (one routed round trip to the
  // entry's home module). This is the paper's conclusion-section scheme;
  // with it, processors need no local O(m log rM)-bit tables.
  if (config_.prom_lookup) {
    n_packets = 0;
    for (const auto& request : requests) {
      const auto home = prom_home_module(request.var, map_->num_modules());
      round_trip_into(next_packet().path,
                      request.requester.value() % config_.n_processors,
                      home.value());
    }
    const auto report = router_.route(
        std::span<net::Packet>(packets_.data(), n_packets),
        /*max_cycles=*/1'000'000);
    PRAMSIM_ASSERT_MSG(report.delivered == n_packets,
                       "P-ROM lookup phase failed to complete");
    result.time += report.cycles;
    prom_cycles_ += report.cycles;
  }

  states_.assign(requests.size(), State{});
  copies_.resize(requests.size() * r);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    states_[i].cluster = requests[i].requester.value() / s;
    map_->copies_into(requests[i].var,
                      std::span<ModuleId>(copies_).subspan(i * r, r));
  }
  std::uint64_t live = requests.size();  // requests not yet dead

  const std::uint32_t n_clusters = (config_.n_processors + s - 1) / s;
  std::uint64_t budget = phase_budget_;

  // Runs one routed phase for the given active request indices; returns
  // the number of copy accesses completed.
  auto run_phase = [&](std::span<const std::uint32_t> active) {
    n_packets = 0;
    origin_.clear();
    for (const auto idx : active) {
      const State& st = states_[idx];
      if (st.dead) {
        continue;
      }
      for (std::uint32_t copy = 0; copy < r; ++copy) {
        if ((st.mask >> copy) & 1ULL) {
          continue;
        }
        // Cluster member `copy mod s` handles this copy: the packet
        // starts from that processor's row-tree root. Members take turns
        // injecting (injected_at staggers same-source packets).
        const std::uint32_t proc =
            (st.cluster * s + copy % s) % config_.n_processors;
        net::Packet& packet = next_packet();
        packet.injected_at = copy / s;  // serialize a member's own packets
        round_trip_into(packet.path, proc,
                        copies_[std::size_t{idx} * r + copy].value());
        origin_.emplace_back(idx, copy);
      }
    }
    if (n_packets == 0) {
      return std::uint64_t{0};
    }
    const std::span<net::Packet> packets(packets_.data(), n_packets);
    const auto report = router_.route(packets, budget);
    result.time += report.cycles + phase_overhead_;
    result.stats.max_queue =
        std::max(result.stats.max_queue, report.max_edge_queue);
    std::uint64_t completed = 0;
    for (std::size_t p = 0; p < packets.size(); ++p) {
      if (!packets[p].delivered()) {
        continue;
      }
      State& st = states_[origin_[p].first];
      if (st.dead) {
        continue;  // copies beyond c still count as work, not access
      }
      st.mask |= 1ULL << origin_[p].second;
      ++st.accessed;
      ++completed;
      ++result.work;
      if (st.accessed >= c) {
        st.dead = true;
        --live;
      }
    }
    ++result.stats.phases;
    result.stats.live_per_phase.push_back(live);
    return completed;
  };

  // ---- stage 1: interleaved cluster turns ----------------------------
  // Turn (cluster k, member j) belongs to requester k * s + j; when
  // several requests share a requester the last one holds the turn, and
  // requesters past the last cluster (>= n_clusters * s) get none.
  constexpr std::uint32_t kNoRequest = ~0U;
  slot_.assign(std::size_t{n_clusters} * s, kNoRequest);
  for (std::uint32_t i = 0; i < states_.size(); ++i) {
    const std::uint32_t requester = requests[i].requester.value();
    if (requester < slot_.size()) {
      slot_[requester] = i;
    }
  }
  const std::uint64_t stage1_phases =
      static_cast<std::uint64_t>(config_.stage1_turns) * s;
  for (std::uint64_t phase = 0; phase < stage1_phases && live > 0;
       ++phase) {
    active_.clear();
    for (std::uint32_t k = 0; k < n_clusters; ++k) {
      const auto member = static_cast<std::uint32_t>((phase + k) % s);
      const std::uint32_t idx = slot_[std::size_t{k} * s + member];
      if (idx != kNoRequest && !states_[idx].dead) {
        active_.push_back(idx);
      }
    }
    if (active_.empty()) {
      continue;
    }
    run_phase(active_);
    ++result.stats.stage1_phases;
  }
  result.stats.live_after_stage1 = live;

  // ---- stage 2: drain leftovers, one variable per cluster ------------
  pending_.clear();
  for (std::uint32_t i = 0; i < states_.size(); ++i) {
    if (!states_[i].dead) {
      pending_.push_back(i);
    }
  }
  std::size_t next_pending = 0;
  assigned_.clear();
  auto refill = [&] {
    std::erase_if(assigned_, [&](std::uint32_t i) { return states_[i].dead; });
    while (assigned_.size() < n_clusters && next_pending < pending_.size()) {
      const auto i = pending_[next_pending++];
      if (!states_[i].dead) {
        assigned_.push_back(i);
      }
    }
  };
  refill();
  while (!assigned_.empty()) {
    const auto completed = run_phase(assigned_);
    ++result.stats.stage2_phases;
    if (completed == 0) {
      // Phase budget too tight for the current congestion; widen it so
      // the protocol always terminates (never triggers at the default
      // budget; a phase_budget_cycles below one round trip always does).
      budget *= 2;
    }
    refill();
  }

  for (std::size_t i = 0; i < states_.size(); ++i) {
    PRAMSIM_ASSERT(states_[i].accessed >= c);
    result.accessed_mask[i] = states_[i].mask;
  }
}

}  // namespace pramsim::core
