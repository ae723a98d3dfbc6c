// Tests for the mesh-of-trees topologies, path construction, and the
// cycle-accurate router.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <set>
#include <unordered_set>

#include "network/paths.hpp"
#include "network/router.hpp"
#include "network/topology.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"
#include "fnv_digest.hpp"

namespace pramsim::net {
namespace {

// ------------------------------------------------------- topology -------

TEST(Topology, SquareMotSummaryMatchesHandCounts) {
  // 4x4 2DMOT (the paper's Fig. 4), coalesced roots:
  // leaves 16; internal per tree 3; 8 trees -> 24, minus 4 coalesced = 20.
  const auto s = summarize(square_mot(4));
  EXPECT_EQ(s.leaves, 16u);
  EXPECT_EQ(s.switches, 20u);
  EXPECT_EQ(s.nodes, 36u);
  EXPECT_EQ(s.links, 48u);  // 8 trees x 6 edges
  EXPECT_EQ(s.max_degree, 4u);
  EXPECT_EQ(s.diameter_hops, 8u);
}

TEST(Topology, RectMotSummaryMatchesHandCounts) {
  // 2 x 8 crossbar-style MOT: row internal 2*(8-1)=14, col internal
  // 8*(2-1)=8 -> 22 switches; links 2*14 + 8*2 = 44.
  const auto s = summarize(rect_mot(2, 8));
  EXPECT_EQ(s.leaves, 16u);
  EXPECT_EQ(s.switches, 22u);
  EXPECT_EQ(s.nodes, 38u);
  EXPECT_EQ(s.links, 2u * 2 * 7 + 8u * 2 * 1);
  EXPECT_EQ(s.max_degree, 3u);
}

TEST(Topology, SwitchCountsMatchPaperAsymptotics) {
  // Fig. 8 claim: square sqrt(M) x sqrt(M) MOT introduces O(M) switches.
  for (std::uint32_t side : {8u, 16u, 32u, 64u}) {
    const auto s = summarize(square_mot(side));
    const double M = static_cast<double>(side) * side;
    EXPECT_LT(static_cast<double>(s.switches), 2.0 * M);
    EXPECT_GT(static_cast<double>(s.switches), 0.5 * M);
  }
  // Fig. 7 claim: n x M crossbar MOT uses O(nM) switches.
  for (std::uint32_t n : {4u, 8u, 16u}) {
    const std::uint32_t M = n * n;
    const auto s = summarize(rect_mot(n, M));
    const double nM = static_cast<double>(n) * M;
    EXPECT_LT(static_cast<double>(s.switches), 2.0 * nM);
    EXPECT_GT(static_cast<double>(s.switches), 0.5 * nM);
  }
}

class AdjacencyAuditTest
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t, bool>> {};

TEST_P(AdjacencyAuditTest, ExplicitGraphMatchesClosedForm) {
  const auto [rows, cols, coalesce] = GetParam();
  MotShape shape{rows, cols, coalesce};
  const auto summary = summarize(shape);
  const auto adj = build_adjacency(shape);
  EXPECT_EQ(adj.size(), summary.nodes);
  std::uint64_t degree_sum = 0;
  std::uint32_t max_degree = 0;
  for (const auto& neighbors : adj) {
    degree_sum += neighbors.size();
    max_degree = std::max<std::uint32_t>(
        max_degree, static_cast<std::uint32_t>(neighbors.size()));
    // no duplicate links
    std::set<std::uint32_t> distinct(neighbors.begin(), neighbors.end());
    EXPECT_EQ(distinct.size(), neighbors.size());
  }
  EXPECT_EQ(degree_sum, 2 * summary.links);
  EXPECT_EQ(max_degree, summary.max_degree);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, AdjacencyAuditTest,
    ::testing::Values(std::make_tuple(4u, 4u, true),
                      std::make_tuple(8u, 8u, true),
                      std::make_tuple(16u, 16u, true),
                      std::make_tuple(4u, 4u, false),
                      std::make_tuple(2u, 8u, false),
                      std::make_tuple(8u, 32u, false),
                      std::make_tuple(16u, 64u, false)));

TEST(Topology, BoundedDegreeAtAllScales) {
  // The defining DMBDN constraint: degree stays <= 4 no matter the size.
  for (std::uint32_t side : {4u, 16u, 64u, 256u, 1024u}) {
    EXPECT_LE(summarize(square_mot(side)).max_degree, 4u) << side;
  }
}

TEST(Topology, AsciiSketchContainsTrees) {
  const auto sketch = ascii_sketch(square_mot(4));
  EXPECT_NE(sketch.find("RT0"), std::string::npos);
  EXPECT_NE(sketch.find("CT3"), std::string::npos);
  EXPECT_NE(sketch.find("(3,3)"), std::string::npos);
}

// ----------------------------------------------------------- paths ------

TEST(Paths, DescendFollowsBinaryDigits) {
  // Tree over 8 leaves; leaf 5 = 101b: root->right(3)->left(6)->right(13).
  const auto path = descend(TreeKind::kRow, 2, 5, 8);
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[0], tree_edge(TreeKind::kRow, 2, 3, Direction::kDown));
  EXPECT_EQ(path[1], tree_edge(TreeKind::kRow, 2, 6, Direction::kDown));
  EXPECT_EQ(path[2], tree_edge(TreeKind::kRow, 2, 13, Direction::kDown));
}

TEST(Paths, AscendIsDescendReversedModuloDirection) {
  const auto down = descend(TreeKind::kCol, 7, 11, 16);
  const auto up = ascend(TreeKind::kCol, 7, 11, 16);
  ASSERT_EQ(down.size(), up.size());
  for (std::size_t i = 0; i < down.size(); ++i) {
    const auto d = down[i];
    const auto u = up[up.size() - 1 - i];
    EXPECT_EQ(d.raw & ~(1ULL << 61), u.raw & ~(1ULL << 61));
    EXPECT_NE(d.raw & (1ULL << 61), u.raw & (1ULL << 61));
  }
}

TEST(Paths, HpRequestPathHasPaperLength) {
  // down log S + up log S + down log S + module port.
  const std::uint32_t S = 16;
  const auto path = hp_request_path(S, 3, 9, 12);
  EXPECT_EQ(path.size(), 3u * 4u + 1u);
  EXPECT_EQ(path.back(), module_port(9 * S + 12));
}

TEST(Paths, LcaTurnaroundNeverLonger) {
  const std::uint32_t S = 32;
  util::Rng rng(4);
  for (int trial = 0; trial < 50; ++trial) {
    const auto l = static_cast<std::uint32_t>(rng.below(S));
    const auto i = static_cast<std::uint32_t>(rng.below(S));
    const auto j = static_cast<std::uint32_t>(rng.below(S));
    const auto via_root = hp_request_path(S, l, i, j, false);
    const auto via_lca = hp_request_path(S, l, i, j, true);
    EXPECT_LE(via_lca.size(), via_root.size());
    EXPECT_EQ(via_lca.back(), via_root.back());
  }
}

TEST(Paths, LcaPathSameRowSkipsColumnTree) {
  // proc_row == mod_row: the LCA is the leaf itself; only the row descent
  // and the module port remain.
  const std::uint32_t S = 8;
  const auto path = hp_request_path(S, 5, 5, 2, true);
  EXPECT_EQ(path.size(), 3u + 1u);
}

TEST(Paths, ReversedFlipsDirectionsAndOrder) {
  const auto request = hp_request_path(8, 1, 6, 3);
  const auto reply = reversed(request);
  ASSERT_EQ(reply.size(), request.size());
  EXPECT_EQ(reply[0], request.back());  // module port is direction-less
  // Last reply edge is the first request edge with flipped direction.
  EXPECT_EQ(reply.back().raw, request.front().raw ^ (1ULL << 61));
}

TEST(Paths, RootModulePathLength) {
  const auto shape = rect_mot(8, 64);
  const auto path = root_module_request_path(shape, 5, 40);
  // log 64 down + log 8 up + port.
  EXPECT_EQ(path.size(), 6u + 3u + 1u);
  EXPECT_EQ(path.back(), module_port(40));
}

// ---------------------------------------------------------- router ------

TEST(Router, SinglePacketTakesPathLengthCycles) {
  std::vector<Packet> packets(1);
  packets[0].id = 0;
  packets[0].path = hp_request_path(16, 2, 7, 9);
  const auto hops = packets[0].path.size();
  const auto report = route_all(packets);
  EXPECT_EQ(report.delivered, 1u);
  EXPECT_EQ(report.cycles, hops);
  EXPECT_EQ(packets[0].delivered_at, hops);
  EXPECT_EQ(report.total_hops, hops);
}

TEST(Router, ModulePortSerializesContenders) {
  // k packets all ending at the same module port: last one is delayed by
  // at least k-1 service cycles.
  const std::uint32_t S = 16;
  const std::uint32_t k = 8;
  std::vector<Packet> packets(k);
  for (std::uint32_t p = 0; p < k; ++p) {
    packets[p].id = p;
    packets[p].path = hp_request_path(S, p, 3, 5);
  }
  const auto report = route_all(packets);
  EXPECT_EQ(report.delivered, k);
  std::uint64_t last = 0;
  for (const auto& p : packets) {
    last = std::max(last, p.delivered_at);
  }
  EXPECT_GE(last, 3u * 4u + k);  // path length + serialized port service
  EXPECT_GE(report.max_edge_queue, 2u);
}

TEST(Router, DisjointPathsDontInterfere) {
  // Packets in different rows to different columns/modules never share an
  // edge: all deliver in exactly path-length cycles.
  const std::uint32_t S = 16;
  std::vector<Packet> packets(S);
  for (std::uint32_t p = 0; p < S; ++p) {
    packets[p].id = p;
    packets[p].path = hp_request_path(S, p, p, p);
  }
  const auto report = route_all(packets);
  EXPECT_EQ(report.delivered, S);
  for (const auto& p : packets) {
    EXPECT_EQ(p.delivered_at, p.path.size());
  }
  EXPECT_EQ(report.max_edge_queue, 1u);
}

TEST(Router, InjectionTimeHonored) {
  std::vector<Packet> packets(1);
  packets[0].id = 0;
  packets[0].injected_at = 10;
  packets[0].path = descend(TreeKind::kRow, 0, 3, 8);
  const auto report = route_all(packets);
  EXPECT_EQ(packets[0].delivered_at, 10u + 3u);
  EXPECT_GE(report.cycles, 13u);
}

TEST(Router, FifoArbitrationIsDeterministic) {
  const std::uint32_t S = 32;
  util::Rng rng(5);
  auto make_packets = [&](std::uint64_t seed) {
    util::Rng local(seed);
    std::vector<Packet> packets(64);
    for (std::uint32_t p = 0; p < 64; ++p) {
      packets[p].id = p;
      packets[p].path = hp_request_path(
          S, static_cast<std::uint32_t>(local.below(S)),
          static_cast<std::uint32_t>(local.below(S)),
          static_cast<std::uint32_t>(local.below(S)));
    }
    return packets;
  };
  (void)rng;
  auto a = make_packets(9);
  auto b = make_packets(9);
  const auto ra = route_all(a);
  const auto rb = route_all(b);
  EXPECT_EQ(ra.cycles, rb.cycles);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].delivered_at, b[i].delivered_at);
  }
}

TEST(Router, AllPacketsDeliveredUnderHeavyRandomLoad) {
  const std::uint32_t S = 64;
  util::Rng rng(11);
  std::vector<Packet> packets(512);
  std::uint64_t expected_hops = 0;
  for (std::uint32_t p = 0; p < 512; ++p) {
    packets[p].id = p;
    packets[p].path = hp_request_path(
        S, static_cast<std::uint32_t>(rng.below(S)),
        static_cast<std::uint32_t>(rng.below(S)),
        static_cast<std::uint32_t>(rng.below(S)));
    expected_hops += packets[p].path.size();
  }
  const auto report = route_all(packets);
  EXPECT_EQ(report.delivered, 512u);
  EXPECT_EQ(report.total_hops, expected_hops);
  EXPECT_GT(report.mean_latency, 0.0);
  EXPECT_GE(report.max_latency, 3u * 6u + 1u);
}

TEST(Router, MaxCyclesStopsEarly) {
  std::vector<Packet> packets(1);
  packets[0].id = 0;
  packets[0].path = hp_request_path(16, 2, 7, 9);
  const auto report = route_all(packets, /*max_cycles=*/3);
  EXPECT_EQ(report.delivered, 0u);
  EXPECT_EQ(report.cycles, 3u);
  EXPECT_FALSE(packets[0].delivered());
  EXPECT_EQ(packets[0].next_edge, 3u);
}

TEST(Router, StartCycleOffsetsClock) {
  std::vector<Packet> packets(1);
  packets[0].id = 0;
  packets[0].path = descend(TreeKind::kRow, 0, 1, 4);
  const auto report = route_all(packets, 1000, /*start_cycle=*/100);
  EXPECT_EQ(report.cycles, 2u);
  EXPECT_EQ(packets[0].delivered_at, 102u);
}

TEST(Router, ReplyPathsAlsoRoute) {
  // Round trip: route the request leg, then the reversed reply leg
  // injected at the delivery time. Total time = 2x one-way + port.
  const auto request = hp_request_path(16, 4, 10, 2);
  std::vector<Packet> leg1(1);
  leg1[0].id = 0;
  leg1[0].path = request;
  const auto r1 = route_all(leg1);
  ASSERT_EQ(r1.delivered, 1u);

  std::vector<Packet> leg2(1);
  leg2[0].id = 1;
  leg2[0].path = reversed(request);
  leg2[0].injected_at = leg1[0].delivered_at;
  const auto r2 = route_all(leg2, 10'000);
  EXPECT_EQ(r2.delivered, 1u);
  EXPECT_EQ(leg2[0].delivered_at, 2 * request.size());
}

// -------------------------------------------------- golden digests ------
// Bit-identity pins for the router: the constants were computed with the
// original per-cycle hash-map router, so a rewrite must reproduce every
// RouteReport field and every packet's final state exactly.

void fold_route(testing::Fnv64& digest, const RouteReport& report,
                const std::vector<Packet>& packets) {
  digest.add(report.cycles);
  digest.add(report.delivered);
  digest.add(report.total_hops);
  digest.add(report.max_edge_queue);
  digest.add(std::bit_cast<std::uint64_t>(report.mean_latency));
  digest.add(report.max_latency);
  for (const auto& p : packets) {
    digest.add(p.delivered_at);
    digest.add(p.next_edge);
  }
}

/// `count` random HP requests on an S x S 2DMOT, injections staggered
/// over [inject_base, inject_base + inject_spread).
std::vector<Packet> random_hp_batch(std::uint32_t S, std::uint32_t count,
                                    std::uint64_t seed, bool lca,
                                    std::uint64_t inject_base = 0,
                                    std::uint64_t inject_spread = 8) {
  util::Rng rng(seed);
  std::vector<Packet> packets(count);
  for (std::uint32_t p = 0; p < count; ++p) {
    packets[p].id = p;
    const auto l = static_cast<std::uint32_t>(rng.below(S));
    const auto i = static_cast<std::uint32_t>(rng.below(S));
    const auto j = static_cast<std::uint32_t>(rng.below(S));
    packets[p].path = hp_request_path(S, l, i, j, lca);
    packets[p].injected_at = inject_base + rng.below(inject_spread);
  }
  return packets;
}

TEST(Router, GoldenDigestHeavyHpBatches) {
  testing::Fnv64 digest;
  for (const std::uint32_t S : {16u, 64u}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      auto packets = random_hp_batch(S, 8 * S, seed, seed == 2);
      fold_route(digest, route_all(packets), packets);
    }
  }
  EXPECT_EQ(digest.value(), 0x6FDF1711506846F1ULL);
}

TEST(Router, GoldenDigestCutoffAndResume) {
  testing::Fnv64 digest;
  auto packets = random_hp_batch(64, 512, 4, false);
  // Cut off mid-flight, then resume the survivors on the same clock.
  fold_route(digest, route_all(packets, /*max_cycles=*/20), packets);
  fold_route(digest, route_all(packets, 1'000'000, /*start_cycle=*/20),
             packets);
  EXPECT_EQ(digest.value(), 0x50D0AC0A5624C046ULL);
}

TEST(Router, GoldenDigestStartCycle) {
  testing::Fnv64 digest;
  // Injections straddle the start cycle: some held past it, some before.
  auto packets = random_hp_batch(16, 96, 5, false, 995, 10);
  Packet empty;  // an empty path is delivered at once
  empty.id = 96;
  packets.push_back(empty);
  fold_route(digest, route_all(packets, 1'000'000, /*start_cycle=*/1000),
             packets);
  EXPECT_EQ(digest.value(), 0xF46F214C9545B2BBULL);
}

TEST(Router, GoldenDigestRootModuleAndRoundTripPaths) {
  testing::Fnv64 digest;
  util::Rng rng(6);
  for (const auto shape : {square_mot(32), rect_mot(16, 64)}) {
    std::vector<Packet> packets(6 * shape.rows);
    for (std::uint32_t p = 0; p < packets.size(); ++p) {
      packets[p].id = p;
      packets[p].path = root_module_request_path(
          shape, static_cast<std::uint32_t>(rng.below(shape.rows)),
          static_cast<std::uint32_t>(rng.below(shape.cols)));
      packets[p].injected_at = rng.below(4);
    }
    fold_route(digest, route_all(packets), packets);
  }
  // Engine-style round trips: request, then the reply minus the port.
  std::vector<Packet> trips(256);
  for (std::uint32_t p = 0; p < trips.size(); ++p) {
    trips[p].id = p;
    Path path = hp_request_path(
        32, static_cast<std::uint32_t>(rng.below(32)),
        static_cast<std::uint32_t>(rng.below(32)),
        static_cast<std::uint32_t>(rng.below(32)), p % 3 == 0);
    const Path back(path.begin(), path.end() - 1);
    append(path, reversed(back));
    trips[p].path = std::move(path);
    trips[p].injected_at = p % 7 == 0 ? 1 : 0;
  }
  fold_route(digest, route_all(trips, 60), trips);
  EXPECT_EQ(digest.value(), 0x5CF0C8257AE8AF7AULL);
}

// The FIFO winner is the minimum of (waiting_since, id), a strict total
// order for distinct ids, so routing must not depend on the order the
// packets are listed in.
TEST(Router, OrderInvariantUnderPacketPermutation) {
  for (const std::uint64_t max_cycles : {1'000'000ULL, 25ULL}) {
    for (std::uint64_t seed = 7; seed <= 9; ++seed) {
      auto base = random_hp_batch(32, 384, seed, seed == 8);
      auto permuted = base;
      util::Rng rng(seed + 100);
      rng.shuffle(permuted);
      const auto ra = route_all(base, max_cycles);
      const auto rb = route_all(permuted, max_cycles);
      EXPECT_EQ(ra.cycles, rb.cycles);
      EXPECT_EQ(ra.delivered, rb.delivered);
      EXPECT_EQ(ra.total_hops, rb.total_hops);
      EXPECT_EQ(ra.max_edge_queue, rb.max_edge_queue);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(ra.mean_latency),
                std::bit_cast<std::uint64_t>(rb.mean_latency));
      EXPECT_EQ(ra.max_latency, rb.max_latency);
      for (const auto& p : permuted) {
        EXPECT_EQ(p.delivered_at, base[p.id].delivered_at) << p.id;
        EXPECT_EQ(p.next_edge, base[p.id].next_edge) << p.id;
      }
    }
  }
}

}  // namespace
}  // namespace pramsim::net
