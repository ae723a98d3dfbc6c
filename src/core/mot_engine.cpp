#include "core/mot_engine.hpp"

#include <algorithm>
#include <unordered_map>

#include "core/prom.hpp"
#include "network/paths.hpp"
#include "network/router.hpp"
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

std::vector<net::EdgeKey> MotEngine::round_trip_path(
    std::uint32_t proc, std::uint32_t module) const {
  net::Path request;
  switch (config_.scheme) {
    case MotScheme::kHpLeaves: {
      const std::uint32_t side = shape_.rows;
      request = net::hp_request_path(side, proc, module / side, module % side,
                                     config_.lca_turnaround);
      break;
    }
    case MotScheme::kLppRoots:
    case MotScheme::kCrossbar:
      request = net::root_module_request_path(shape_, proc, module);
      break;
  }
  // Reply retraces everything but the module port.
  net::Path back(request.begin(), request.end() - 1);
  net::append(request, net::reversed(back));
  return request;
}

void MotEngine::run_step_into(std::span<const majority::VarRequest> requests,
                              majority::EngineResult& result) {
  const std::uint32_t r = map_->redundancy();
  const std::uint32_t c = config_.c;
  const std::uint32_t s = std::max<std::uint32_t>(config_.cluster_size, 1);

  result = {};
  result.accessed_mask.assign(requests.size(), 0);
  if (requests.empty()) {
    return;
  }

  // ---- optional P-ROM address-translation phase ----------------------
  // Before any copy access, every requester fetches its variable's map
  // entry from the distributed table (one routed round trip to the
  // entry's home module). This is the paper's conclusion-section scheme;
  // with it, processors need no local O(m log rM)-bit tables.
  if (config_.prom_lookup) {
    std::vector<net::Packet> lookups;
    lookups.reserve(requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const auto home =
          prom_home_module(requests[i].var, map_->num_modules());
      net::Packet packet;
      packet.id = static_cast<std::uint32_t>(i);
      packet.path = round_trip_path(
          requests[i].requester.value() % config_.n_processors,
          home.value());
      lookups.push_back(std::move(packet));
    }
    const auto report = net::route_all(lookups, /*max_cycles=*/1'000'000);
    PRAMSIM_ASSERT_MSG(report.delivered == lookups.size(),
                       "P-ROM lookup phase failed to complete");
    result.time += report.cycles;
    prom_cycles_ += report.cycles;
  }

  struct State {
    std::uint32_t cluster = 0;
    std::uint32_t member = 0;
    std::uint32_t accessed = 0;
    std::uint64_t mask = 0;
    bool dead = false;
    std::vector<ModuleId> copies;
  };
  std::vector<State> states(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    states[i].cluster = requests[i].requester.value() / s;
    states[i].member = requests[i].requester.value() % s;
    states[i].copies = map_->copies(requests[i].var);
  }

  const std::uint32_t n_clusters = (config_.n_processors + s - 1) / s;
  std::uint64_t budget = phase_budget_;
  std::uint32_t packet_id = 0;

  // Runs one routed phase for the given active request indices; returns
  // the number of copy accesses completed.
  auto run_phase = [&](const std::vector<std::uint32_t>& active) {
    std::vector<net::Packet> packets;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> origin;  // req, copy
    for (const auto idx : active) {
      State& st = states[idx];
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
        net::Packet packet;
        packet.id = packet_id++;
        packet.injected_at = copy / s;  // serialize a member's own packets
        packet.path = round_trip_path(proc, st.copies[copy].value());
        packets.push_back(std::move(packet));
        origin.emplace_back(static_cast<std::uint32_t>(idx), copy);
      }
    }
    if (packets.empty()) {
      return std::uint64_t{0};
    }
    const auto report = net::route_all(packets, budget);
    result.time += report.cycles + phase_overhead_;
    result.stats.max_queue =
        std::max(result.stats.max_queue, report.max_edge_queue);
    std::uint64_t completed = 0;
    for (std::size_t p = 0; p < packets.size(); ++p) {
      if (!packets[p].delivered()) {
        continue;
      }
      State& st = states[origin[p].first];
      if (st.dead) {
        continue;  // copies beyond c still count as work, not access
      }
      st.mask |= 1ULL << origin[p].second;
      ++st.accessed;
      ++completed;
      ++result.work;
      if (st.accessed >= c) {
        st.dead = true;
      }
    }
    ++result.stats.phases;
    result.stats.live_per_phase.push_back(static_cast<std::uint64_t>(
        std::count_if(states.begin(), states.end(),
                      [](const State& st) { return !st.dead; })));
    return completed;
  };

  auto all_dead = [&] {
    return std::all_of(states.begin(), states.end(),
                       [](const State& st) { return st.dead; });
  };

  // ---- stage 1: interleaved cluster turns ----------------------------
  std::unordered_map<std::uint64_t, std::uint32_t> slot;
  for (std::uint32_t i = 0; i < states.size(); ++i) {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(states[i].cluster) << 32) |
        states[i].member;
    slot[key] = i;
  }
  const std::uint64_t stage1_phases =
      static_cast<std::uint64_t>(config_.stage1_turns) * s;
  std::vector<std::uint32_t> active;
  for (std::uint64_t phase = 0; phase < stage1_phases && !all_dead();
       ++phase) {
    active.clear();
    for (std::uint32_t k = 0; k < n_clusters; ++k) {
      const auto member = static_cast<std::uint32_t>((phase + k) % s);
      const auto it =
          slot.find((static_cast<std::uint64_t>(k) << 32) | member);
      if (it != slot.end() && !states[it->second].dead) {
        active.push_back(it->second);
      }
    }
    if (active.empty()) {
      continue;
    }
    run_phase(active);
    ++result.stats.stage1_phases;
  }
  result.stats.live_after_stage1 = static_cast<std::uint64_t>(
      std::count_if(states.begin(), states.end(),
                    [](const State& st) { return !st.dead; }));

  // ---- stage 2: drain leftovers, one variable per cluster ------------
  std::vector<std::uint32_t> pending;
  for (std::uint32_t i = 0; i < states.size(); ++i) {
    if (!states[i].dead) {
      pending.push_back(i);
    }
  }
  std::size_t next_pending = 0;
  std::vector<std::uint32_t> assigned;
  auto refill = [&] {
    assigned.erase(
        std::remove_if(assigned.begin(), assigned.end(),
                       [&](std::uint32_t i) { return states[i].dead; }),
        assigned.end());
    while (assigned.size() < n_clusters && next_pending < pending.size()) {
      const auto i = pending[next_pending++];
      if (!states[i].dead) {
        assigned.push_back(i);
      }
    }
  };
  refill();
  while (!assigned.empty()) {
    const auto completed = run_phase(assigned);
    ++result.stats.stage2_phases;
    if (completed == 0) {
      // Phase budget too tight for the current congestion; widen it so
      // the protocol always terminates (never triggers at the defaults).
      budget *= 2;
    }
    refill();
  }

  for (std::size_t i = 0; i < states.size(); ++i) {
    PRAMSIM_ASSERT(states[i].accessed >= c);
    result.accessed_mask[i] = states[i].mask;
  }
}

}  // namespace pramsim::core
