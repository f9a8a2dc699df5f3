// Depth suite: behaviors exercised only indirectly elsewhere get direct,
// adversarial coverage here — sorting under skew, SKETCHANDSPAN on
// hand-built component graphs, EXACT-MST across preprocessing depths,
// routing round-count properties, and the KT1 audit on the middle
// (two-component) instances of the Figure 1 family.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "comm/routing.hpp"
#include "comm/sorting.hpp"
#include "core/exact_mst.hpp"
#include "core/gc.hpp"
#include "core/sketch_and_span.hpp"
#include "graph/generators.hpp"
#include "graph/sequential.hpp"
#include "graph/union_find.hpp"
#include "graph/verify.hpp"
#include "lowerbound/kt1_family.hpp"

namespace ccq {
namespace {

TEST(SortingDepth, AdversarialDistributions) {
  const std::uint32_t n = 10;
  struct Case {
    const char* name;
    std::function<std::uint64_t(std::size_t)> key_of;
    std::size_t count;
  };
  const std::vector<Case> cases{
      {"sorted", [](std::size_t i) { return static_cast<std::uint64_t>(i); },
       400},
      {"reverse",
       [](std::size_t i) { return static_cast<std::uint64_t>(1000 - i); },
       400},
      {"two-values", [](std::size_t i) { return i % 2 ? 7ull : 9ull; }, 400},
      {"single-hot-value", [](std::size_t) { return 42ull; }, 500},
  };
  for (const auto& c : cases) {
    Rng rng{11};
    std::vector<std::vector<std::uint64_t>> keys(n);
    for (std::size_t i = 0; i < c.count; ++i)
      keys[i % n].push_back(c.key_of(i));
    CliqueEngine engine{{.n = n}};
    const auto ranks = distributed_sort_ranks(engine, keys, rng);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> rank_key;
    for (VertexId v = 0; v < n; ++v)
      for (std::size_t i = 0; i < keys[v].size(); ++i)
        rank_key.push_back({ranks[v][i], keys[v][i]});
    std::sort(rank_key.begin(), rank_key.end());
    for (std::size_t i = 0; i < rank_key.size(); ++i)
      EXPECT_EQ(rank_key[i].first, i) << c.name;
    for (std::size_t i = 1; i < rank_key.size(); ++i)
      EXPECT_LE(rank_key[i - 1].second, rank_key[i].second) << c.name;
  }
}

TEST(SortingDepth, AllKeysOnOneNode) {
  const std::uint32_t n = 8;
  Rng rng{13};
  std::vector<std::vector<std::uint64_t>> keys(n);
  for (int i = 0; i < 300; ++i) keys[5].push_back(rng.next_below(1 << 16));
  CliqueEngine engine{{.n = n}};
  const auto ranks = distributed_sort_ranks(engine, keys, rng);
  auto sorted = keys[5];
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < keys[5].size(); ++i)
    EXPECT_EQ(sorted[ranks[5][i]], keys[5][i]);
}

TEST(SketchAndSpanDepth, HandBuiltComponentGraph) {
  // Components {0,1}, {2,3}, {4,5} in a path: the sketch phase must find
  // exactly the two connecting edges.
  const std::uint32_t n = 6;
  ComponentGraph g1;
  g1.leaders = {0, 2, 4};
  g1.active_leaders = {0, 2, 4};
  g1.witness.emplace(component_pair(0, 2), WeightedEdge{1, 2, 1});
  g1.witness.emplace(component_pair(2, 4), WeightedEdge{3, 4, 1});
  CliqueEngine engine{{.n = n}};
  Rng rng{17};
  const auto result = sketch_and_span(engine, g1, rng);
  EXPECT_TRUE(result.monte_carlo_ok);
  ASSERT_EQ(result.component_forest.size(), 2u);
  // Real forest carries the witnesses.
  std::set<Edge> real(result.real_forest.begin(), result.real_forest.end());
  EXPECT_TRUE(real.contains(Edge{1, 2}));
  EXPECT_TRUE(real.contains(Edge{3, 4}));
}

TEST(SketchAndSpanDepth, IsolatedLeadersUntouched) {
  // One adjacency plus one finished (isolated) component: the forest must
  // contain exactly the one edge.
  const std::uint32_t n = 8;
  ComponentGraph g1;
  g1.leaders = {0, 3, 6};
  g1.active_leaders = {0, 3};
  g1.witness.emplace(component_pair(0, 3), WeightedEdge{2, 3, 1});
  CliqueEngine engine{{.n = n}};
  Rng rng{19};
  const auto result = sketch_and_span(engine, g1, rng);
  EXPECT_TRUE(result.monte_carlo_ok);
  EXPECT_EQ(result.component_forest.size(), 1u);
}

TEST(SketchAndSpanDepth, EmptyComponentGraphIsFree) {
  ComponentGraph g1;
  g1.leaders = {0, 4};
  CliqueEngine engine{{.n = 8}};
  Rng rng{21};
  const auto result = sketch_and_span(engine, g1, rng);
  EXPECT_TRUE(result.component_forest.empty());
  EXPECT_EQ(engine.metrics().rounds, 0u);
  EXPECT_EQ(engine.metrics().messages, 0u);
}

class ExactMstPhaseSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ExactMstPhaseSweep, ExactAtEveryPreprocessingDepth) {
  Rng rng{GetParam() + 500};
  const std::uint32_t n = 72;
  const auto g = random_weighted_clique(n, rng);
  CliqueEngine engine{{.n = n}};
  auto r = exact_mst(engine, CliqueWeights::from_graph(g), rng, GetParam());
  EXPECT_TRUE(r.monte_carlo_ok);
  const auto check = verify_msf(g, r.mst);
  EXPECT_TRUE(check.ok) << "phases=" << GetParam() << ": " << check.message;
}

INSTANTIATE_TEST_SUITE_P(Phases, ExactMstPhaseSweep,
                         ::testing::Values(1, 2, 3, 4));

TEST(RoutingDepth, RoundsTrackColorBound) {
  // rounds = 2 * ceil(colors/n) per wave + schedule constant; colors <=
  // bit_ceil(max load). Property-check across random load shapes.
  Rng rng{23};
  for (int trial = 0; trial < 15; ++trial) {
    const auto n = static_cast<std::uint32_t>(12 + rng.next_below(20));
    CliqueEngine engine{{.n = n}};
    std::vector<Packet> packets;
    const std::size_t count = rng.next_below(2000);
    for (std::size_t i = 0; i < count; ++i)
      packets.push_back({static_cast<VertexId>(rng.next_below(n)),
                         static_cast<VertexId>(rng.next_below(n)),
                         msg1(0, i)});
    RouteStats stats;
    RoundBuffer out;
    route_packets_into(engine, packets, out, &stats);
    const std::uint64_t load =
        std::max(stats.max_send_load, stats.max_recv_load);
    if (load == 0) continue;
    const std::uint64_t waves = (2 * load + n - 1) / n + 1;
    const std::uint64_t per_wave =
        2 * ((std::bit_ceil(std::min<std::uint64_t>(load, n)) + n - 1) / n) +
        kScheduleRounds;
    EXPECT_LE(stats.rounds, waves * per_wave + 4)
        << "n=" << n << " load=" << load;
  }
}

TEST(RoutingDepth, EmptyAndSelfOnlyPackets) {
  CliqueEngine engine{{.n = 4}};
  RouteStats stats;
  RoundBuffer inbox;
  route_packets_into(engine, {}, inbox, &stats);
  EXPECT_EQ(stats.rounds, 0u);
  std::vector<Packet> self_only{{1, 1, msg1(0, 5)}, {2, 2, msg1(0, 6)}};
  route_packets_into(engine, self_only, inbox, &stats);
  EXPECT_EQ(stats.rounds, 0u);
  EXPECT_EQ(inbox.inbox(1).size(), 1u);
  EXPECT_EQ(inbox.inbox(2).size(), 1u);
}

TEST(Kt1AuditDepth, MiddleInstancesCrossTheirOwnPartition) {
  // Theorem 10's intermediate step: on G_{i,j'} a correct execution must
  // cross P_{j'} itself (u_{j'} is separated from v_{j'}).
  const Kt1Family family{8};
  for (std::uint32_t j = 1; j <= 8; j += 3) {
    Rng rng{j};
    CliqueEngine engine{{.n = family.n()}};
    PartitionAudit audit{family};
    engine.set_observer(
        [&](VertexId s, VertexId d) { audit.on_message(s, d); });
    const auto r = gc_spanning_forest(engine, family.instance(j), rng);
    EXPECT_FALSE(r.connected);
    EXPECT_GT(audit.crossings(j), 0u) << "j=" << j;
  }
}

TEST(GcDepth, StarAndPathExtremes) {
  Rng rng{29};
  {
    // Star: one Lotker phase collapses it.
    const std::uint32_t n = 64;
    Graph star{n};
    for (VertexId v = 1; v < n; ++v) star.add_edge(0, v);
    CliqueEngine engine{{.n = n}};
    const auto r = gc_spanning_forest(engine, star, rng);
    EXPECT_TRUE(r.connected);
    EXPECT_TRUE(verify_spanning_forest(star, r.forest).ok);
  }
  {
    // Path: the diameter-n case sketches were invented for.
    const std::uint32_t n = 96;
    Graph path{n};
    for (VertexId v = 0; v + 1 < n; ++v) path.add_edge(v, v + 1);
    CliqueEngine engine{{.n = n}};
    const auto r = gc_spanning_forest(engine, path, rng);
    EXPECT_TRUE(r.connected);
    EXPECT_EQ(r.forest.size(), n - 1u);
  }
}

TEST(GcDepth, ForcedPhaseOneKeepsSketchPhaseBusy) {
  // (A unit-weight path collapses in one sweep — chain merges — so a
  // random graph is the input that leaves Phase 2 real work.)
  Rng rng{31};
  const std::uint32_t n = 256;
  const auto g = random_connected(n, 2 * n, rng);
  CliqueEngine engine{{.n = n}};
  const auto r = gc_spanning_forest(engine, g, rng, /*phase_override=*/1);
  EXPECT_TRUE(r.monte_carlo_ok);
  EXPECT_GT(r.unfinished_trees_after_phase1, 8u);
  EXPECT_TRUE(r.connected);
  EXPECT_TRUE(verify_spanning_forest(g, r.forest).ok);
}

}  // namespace
}  // namespace ccq
