// Differential and property-based sweeps across the whole algorithm stack.
//
// Five MST implementations (sequential Kruskal/Borůvka/Prim, distributed
// Borůvka baseline, Lotker CC-MST, EXACT-MST, KT1 Borůvka-sketch) and three
// connectivity implementations (BFS, GC, early-exit verifier) must agree on
// every instance of a randomized grid — the strongest end-to-end invariant
// the library offers. Plus failure-injection checks that the engine's
// model enforcement actually fires.
#include <gtest/gtest.h>

#include <algorithm>

#include "baseline/boruvka_clique.hpp"
#include "comm/routing.hpp"
#include "core/exact_mst.hpp"
#include "core/gc.hpp"
#include "graph/generators.hpp"
#include "graph/sequential.hpp"
#include "graph/verify.hpp"
#include "kt1/boruvka_sketch_mst.hpp"
#include "lotker/cc_mst.hpp"

namespace ccq {
namespace {

struct GridCase {
  std::uint32_t n;
  double density;     // gnp edge probability
  std::uint64_t seed;
};

class MstGrid : public ::testing::TestWithParam<GridCase> {};

TEST_P(MstGrid, AllFiveMstImplementationsAgree) {
  const auto [n, density, seed] = GetParam();
  Rng rng{seed};
  const auto base = gnp(n, density, rng);
  if (base.num_edges() == 0) return;
  const auto g = random_weights(base, 8 * base.num_edges() + 8, rng);
  const auto weights = CliqueWeights::from_graph(g);
  const auto reference = kruskal_msf(g);
  ASSERT_EQ(boruvka_msf(g), reference);

  {
    CliqueEngine engine{{.n = n}};
    auto r = boruvka_clique_msf(engine, weights);
    std::sort(r.msf.begin(), r.msf.end(), weight_less);
    EXPECT_EQ(r.msf, reference) << "distributed Borůvka";
  }
  {
    CliqueEngine engine{{.n = n}};
    auto r = cc_mst_full(engine, weights);
    // CC-MST on sparse inputs may add infinite gluing edges; drop them.
    std::vector<WeightedEdge> finite;
    for (const auto& e : r.tree_edges)
      if (e.w != kInfiniteWeight) finite.push_back(e);
    std::sort(finite.begin(), finite.end(), weight_less);
    EXPECT_EQ(finite, reference) << "CC-MST";
  }
  {
    CliqueEngine engine{{.n = n}};
    Rng r1{seed + 1};
    auto r = exact_mst(engine, weights, r1);
    ASSERT_TRUE(r.monte_carlo_ok);
    std::sort(r.mst.begin(), r.mst.end(), weight_less);
    EXPECT_EQ(r.mst, reference) << "EXACT-MST";
  }
  {
    CliqueEngine engine{{.n = n}};
    Rng r2{seed + 2};
    auto r = boruvka_sketch_mst(engine, g, r2);
    ASSERT_TRUE(r.monte_carlo_ok);
    EXPECT_EQ(r.mst, reference) << "KT1 Borůvka-sketch";
  }
}

TEST_P(MstGrid, ConnectivityImplementationsAgree) {
  const auto [n, density, seed] = GetParam();
  Rng rng{seed + 100};
  const auto g = gnp(n, density, rng);
  const bool truth = is_connected(g);
  {
    CliqueEngine engine{{.n = n}};
    Rng r1{seed + 3};
    const auto r = gc_spanning_forest(engine, g, r1);
    ASSERT_TRUE(r.monte_carlo_ok);
    EXPECT_EQ(r.connected, truth) << "GC";
    EXPECT_TRUE(verify_spanning_forest(g, r.forest).ok);
  }
  {
    CliqueEngine engine{{.n = n}};
    Rng r2{seed + 4};
    const auto r = gc_verify_connectivity(engine, g, r2);
    ASSERT_TRUE(r.monte_carlo_ok);
    EXPECT_EQ(r.connected, truth) << "early-exit verifier";
  }
}

std::vector<GridCase> grid() {
  std::vector<GridCase> cases;
  for (std::uint32_t n : {8u, 24u, 56u})
    for (double density : {0.08, 0.3, 0.9})
      for (std::uint64_t seed : {1ull, 2ull, 3ull})
        cases.push_back({n, density, seed});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Grid, MstGrid, ::testing::ValuesIn(grid()),
                         [](const auto& grid_info) {
                           return "n" + std::to_string(grid_info.param.n) +
                                  "_d" +
                                  std::to_string(static_cast<int>(
                                      grid_info.param.density * 100)) +
                                  "_s" + std::to_string(grid_info.param.seed);
                         });

TEST(FailureInjection, OverfullOutboxThrowsNotSilentlyDrops) {
  CliqueEngine engine{{.n = 4, .messages_per_link = 2}};
  EXPECT_THROW(engine.round_arena([](VertexId u, Outbox& out) {
    if (u == 1)
      for (int i = 0; i < 3; ++i) out.send(2, msg0(i));
  }),
               ProtocolError);
}

TEST(FailureInjection, RoutePacketsRejectsBadEndpoints) {
  CliqueEngine engine{{.n = 4}};
  std::vector<Packet> packets{{0, 9, msg0(0)}};
  RoundBuffer out;
  EXPECT_THROW(route_packets_into(engine, packets, out), std::logic_error);
}

TEST(FailureInjection, MismatchedEngineAndInputSizes) {
  Rng rng{1};
  const auto g = random_weighted_clique(8, rng);
  CliqueEngine engine{{.n = 16}};
  EXPECT_THROW(cc_mst_full(engine, CliqueWeights::from_graph(g)),
               std::logic_error);
  EXPECT_THROW(gc_spanning_forest(engine, Graph{8}, rng), std::logic_error);
}

TEST(FailureInjection, SketchAndSpanSurvivesTinyCopyBudget) {
  // With copies=1 the sketch Borůvka usually stalls; the algorithm must
  // report the Monte Carlo failure instead of fabricating a forest.
  Rng rng{5};
  const std::uint32_t n = 96;
  const auto g = random_connected(n, 2 * n, rng);
  int honest = 0;
  for (int trial = 0; trial < 5; ++trial) {
    CliqueEngine engine{{.n = n}};
    Rng r{static_cast<std::uint64_t>(100 + trial)};
    const auto result =
        gc_spanning_forest(engine, g, r, /*phase_override=*/1,
                           /*copies_override=*/1);
    // Either it got lucky and produced a correct forest, or it flagged the
    // failure; silent wrong output is the only forbidden outcome.
    if (!result.monte_carlo_ok) {
      ++honest;
      continue;
    }
    EXPECT_TRUE(verify_spanning_forest(g, result.forest).ok);
  }
  SUCCEED() << honest << "/5 runs reported Monte Carlo failure";
}

TEST(Determinism, SameSeedSameTranscript) {
  // The whole stack is deterministic given (input, seed): metrics and
  // outputs must be bit-identical across runs.
  const std::uint32_t n = 64;
  Rng gen{9};
  const auto g = random_weighted_clique(n, gen);
  const auto weights = CliqueWeights::from_graph(g);
  Metrics first;
  std::vector<WeightedEdge> first_mst;
  for (int run = 0; run < 2; ++run) {
    CliqueEngine engine{{.n = n}};
    Rng rng{1234};
    auto r = exact_mst(engine, weights, rng);
    if (run == 0) {
      first = engine.metrics();
      first_mst = r.mst;
    } else {
      EXPECT_EQ(engine.metrics().rounds, first.rounds);
      EXPECT_EQ(engine.metrics().messages, first.messages);
      EXPECT_EQ(engine.metrics().words, first.words);
      EXPECT_EQ(r.mst, first_mst);
    }
  }
}

}  // namespace
}  // namespace ccq
