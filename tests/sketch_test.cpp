#include <gtest/gtest.h>

#include <map>
#include <set>

#include "comm/routing.hpp"
#include "graph/generators.hpp"
#include "graph/sequential.hpp"
#include "graph/union_find.hpp"
#include "sketch/graph_sketch.hpp"
#include "sketch/l0_sketch.hpp"
#include "sketch/wire.hpp"

namespace ccq {
namespace {

SketchFamily make_family(std::uint64_t universe, std::uint64_t seed) {
  Rng rng{seed};
  const auto params = SketchParams::for_universe(universe);
  const auto words = rng.words(sketch_seed_words(params));
  return SketchFamily{params, words};
}

TEST(L0, SingleItemRecovered) {
  const auto family = make_family(1000, 1);
  for (std::uint64_t i : {0ull, 1ull, 17ull, 999ull}) {
    for (int sign : {1, -1}) {
      L0Sketch s{family};
      s.update(i, sign);
      const auto sample = s.sample();
      ASSERT_TRUE(sample.has_value());
      EXPECT_EQ(sample->index, i);
      EXPECT_EQ(sample->sign, sign);
    }
  }
}

TEST(L0, ZeroSketchSamplesNothing) {
  const auto family = make_family(1000, 2);
  const L0Sketch s{family};
  EXPECT_TRUE(s.appears_zero());
  EXPECT_FALSE(s.sample().has_value());
}

TEST(L0, CancellationMakesZero) {
  const auto family = make_family(500, 3);
  L0Sketch a{family};
  L0Sketch b{family};
  for (std::uint64_t i : {3ull, 77ull, 421ull}) {
    a.update(i, 1);
    b.update(i, -1);
  }
  a += b;
  EXPECT_TRUE(a.appears_zero());
}

TEST(L0, LinearityEqualsDirectConstruction) {
  const auto family = make_family(2000, 4);
  Rng rng{5};
  L0Sketch sum{family};
  L0Sketch direct{family};
  std::map<std::uint64_t, int> net;
  for (int i = 0; i < 60; ++i) {
    const std::uint64_t idx = rng.next_below(2000);
    const int sign = rng.next_bool(0.5) ? 1 : -1;
    if (net[idx] + sign < -1 || net[idx] + sign > 1) continue;  // stay in ±1
    net[idx] += sign;
    L0Sketch part{family};
    part.update(idx, sign);
    sum += part;
    direct.update(idx, sign);
  }
  EXPECT_EQ(sum.to_words(), direct.to_words());
}

TEST(L0, NegatedCancels) {
  const auto family = make_family(300, 6);
  L0Sketch s{family};
  s.update(5, 1);
  s.update(100, -1);
  auto neg = s.negated();
  neg += s;
  EXPECT_TRUE(neg.appears_zero());
}

TEST(L0, SerializationRoundTrip) {
  const auto family = make_family(4096, 7);
  Rng rng{8};
  L0Sketch s{family};
  for (int i = 0; i < 40; ++i)
    s.update(rng.next_below(4096), rng.next_bool(0.5) ? 1 : -1);
  const auto words = s.to_words();
  EXPECT_EQ(words.size(), L0Sketch::word_size(family.params()));
  const auto back = L0Sketch::from_words(family, words);
  EXPECT_EQ(back.to_words(), words);
}

TEST(L0, FromWordsRejectsWrongSize) {
  const auto family = make_family(100, 9);
  std::vector<std::uint64_t> bad(3, 0);
  EXPECT_THROW(L0Sketch::from_words(family, bad), InvalidArgument);
}

TEST(L0, CrossFamilyAdditionRejected) {
  const auto f1 = make_family(100, 10);
  const auto f2 = make_family(100, 11);
  L0Sketch a{f1};
  const L0Sketch b{f2};
  EXPECT_THROW(a += b, std::logic_error);
}

TEST(L0, SampleReturnsGenuineNonzeroCoordinate) {
  Rng rng{12};
  int successes = 0;
  const int trials = 300;
  for (int t = 0; t < trials; ++t) {
    const auto family = make_family(5000, 1000 + t);
    L0Sketch s{family};
    std::set<std::uint64_t> support;
    const int k = 1 + static_cast<int>(rng.next_below(200));
    for (int i = 0; i < k; ++i) {
      const std::uint64_t idx = rng.next_below(5000);
      if (support.insert(idx).second) s.update(idx, 1);
    }
    const auto sample = s.sample();
    if (sample) {
      ++successes;
      EXPECT_TRUE(support.contains(sample->index));
      EXPECT_EQ(sample->sign, 1);
    }
  }
  // The per-sketch success probability is a constant; with the slack levels
  // we use it is well above 1/2.
  EXPECT_GT(successes, trials / 2);
}

TEST(L0, SampleCoverageAcrossSupport) {
  // Over many independent families, every support element should be
  // sampled at least once (l0-sampling is near-uniform).
  const std::set<std::uint64_t> support{1, 50, 200, 777, 1234};
  std::set<std::uint64_t> seen;
  for (int t = 0; t < 400; ++t) {
    const auto family = make_family(2048, 5000 + t);
    L0Sketch s{family};
    for (auto idx : support) s.update(idx, 1);
    const auto sample = s.sample();
    if (sample) seen.insert(sample->index);
  }
  EXPECT_EQ(seen, support);
}

TEST(SketchSpaceTest, SeedSizingAndDeterminism) {
  Rng rng{13};
  const auto need = SketchSpace::seed_words_needed(64, 5);
  const auto words = rng.words(need);
  const SketchSpace s1{64, 5, words};
  const SketchSpace s2{64, 5, words};
  EXPECT_EQ(s1.copies(), 5u);
  for (std::uint32_t j = 0; j < 5; ++j)
    EXPECT_EQ(s1.family(j).family_id(), s2.family(j).family_id());
  EXPECT_THROW((SketchSpace{64, 5,
                            std::span<const std::uint64_t>{words.data(),
                                                           need - 1}}),
               InvalidArgument);
}

TEST(GraphSketch, ComponentCutSampling) {
  // Two triangles joined by a single edge: summing the sketches of one
  // triangle must cancel its internal edges and sample the bridge.
  Rng rng{14};
  const std::uint32_t n = 6;
  Graph g{n};
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 2);
  g.add_edge(3, 4);
  g.add_edge(4, 5);
  g.add_edge(3, 5);
  g.add_edge(2, 3);  // the bridge
  const auto words = rng.words(SketchSpace::seed_words_needed(n, 4));
  const SketchSpace space{n, 4, words};
  auto incident = [&](VertexId v) {
    std::vector<Edge> out;
    for (VertexId w : g.neighbors(v)) out.emplace_back(v, w);
    return out;
  };
  for (std::uint32_t j = 0; j < 4; ++j) {
    L0Sketch sum{space.family(j)};
    for (VertexId v : {0u, 1u, 2u}) {
      const auto edges = incident(v);
      auto sketches = space.sketch_vertex(v, edges);
      sum += sketches[j];
    }
    const auto sample = sum.sample();
    ASSERT_TRUE(sample.has_value()) << "copy " << j;
    EXPECT_EQ(edge_from_index(sample->index, n), (Edge{2, 3}));
  }
}

class SketchForestSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SketchForestSeeds, MatchesTrueComponents) {
  Rng rng{GetParam()};
  const std::uint32_t n = 48;
  const auto g = random_components(n, 1 + GetParam() % 4, 40, rng);
  const std::uint32_t copies = default_sketch_copies(n);
  const auto words = rng.words(SketchSpace::seed_words_needed(n, copies));
  const SketchSpace space{n, copies, words};
  std::vector<VertexId> vertices;
  std::vector<std::vector<L0Sketch>> per_vertex;
  std::vector<VertexId> identity(n);
  for (VertexId v = 0; v < n; ++v) {
    identity[v] = v;
    std::vector<Edge> incident;
    for (VertexId w : g.neighbors(v)) incident.emplace_back(v, w);
    vertices.push_back(v);
    per_vertex.push_back(space.sketch_vertex(v, incident));
  }
  const auto result = sketch_spanning_forest(space, vertices, identity,
                                             std::move(per_vertex));
  EXPECT_FALSE(result.ran_out_of_sketches);
  UnionFind uf{n};
  for (const Edge& e : result.forest) {
    EXPECT_TRUE(g.has_edge(e.u, e.v));
    EXPECT_TRUE(uf.unite(e.u, e.v)) << "cycle in forest";
  }
  EXPECT_EQ(uf.num_components(), num_components(g));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SketchForestSeeds,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

TEST(Wire, PacketizeAndReassemble) {
  Rng rng{15};
  const std::uint32_t n = 32;
  const auto words = rng.words(SketchSpace::seed_words_needed(n, 3));
  const SketchSpace space{n, 3, words};
  Graph g = random_connected(n, 20, rng);
  std::vector<Packet> packets;
  std::vector<Edge> incident;
  for (VertexId w : g.neighbors(5)) incident.emplace_back(5, w);
  const auto sketches = space.sketch_vertex(5, incident);
  for (std::uint32_t j = 0; j < 3; ++j)
    append_sketch_packets(packets, 5, 0, 0x00030000, j, sketches[j]);
  EXPECT_EQ(packets.size(), 3 * sketch_message_count(space));
  SketchReassembler reassembler{space, 0x00030000};
  for (const auto& p : packets) {
    Message m = p.msg;
    m.src = p.src;
    m.dst = p.dst;
    reassembler.add(m);
  }
  auto result = reassembler.take();
  ASSERT_EQ(result.size(), 3u);
  for (std::uint32_t j = 0; j < 3; ++j) {
    const auto it = result.find({5, j});
    ASSERT_NE(it, result.end());
    EXPECT_EQ(it->second.to_words(), sketches[j].to_words());
  }
}

TEST(Wire, ReassembleAnyOrder) {
  // Chunks of several (src, copy) sketches fed in order, interleaved
  // chunk by chunk, and reversed, with a foreign-tag message mixed in,
  // must all reassemble the same sketches; a missing chunk still throws.
  Rng rng{17};
  const std::uint32_t n = 32;
  const std::uint32_t tag = 0x00050000;
  const auto words = rng.words(SketchSpace::seed_words_needed(n, 2));
  const SketchSpace space{n, 2, words};
  ASSERT_GT(sketch_message_count(space), 1u);
  Graph g = random_connected(n, 40, rng);
  std::vector<Packet> packets;
  for (VertexId v : {3u, 11u, 7u}) {
    std::vector<Edge> incident;
    for (VertexId w : g.neighbors(v)) incident.emplace_back(v, w);
    const auto sketches = space.sketch_vertex(v, incident);
    for (std::uint32_t j = 0; j < 2; ++j)
      append_sketch_packets(packets, v, 0, tag, j, sketches[j]);
  }
  auto message = [](const Packet& p) {
    Message m = p.msg;
    m.src = p.src;
    m.dst = p.dst;
    return m;
  };
  auto reassemble = [&](const std::vector<Packet>& order) {
    SketchReassembler reassembler{space, tag};
    for (std::size_t i = 0; i < order.size(); ++i) {
      reassembler.add(message(order[i]));
      if (i == order.size() / 2) {
        Message foreign = msg1(0x00990000 | (1u << 8), 42);
        foreign.src = order[i].src;
        reassembler.add(foreign);
      }
    }
    std::map<std::pair<VertexId, std::uint32_t>, std::vector<std::uint64_t>>
        out;
    for (auto& [key, sketch] : reassembler.take())
      out.emplace(key, sketch.to_words());
    return out;
  };
  const auto in_order = reassemble(packets);
  ASSERT_EQ(in_order.size(), 6u);

  // Round-robin over the six sketches' chunks, one chunk each in turn.
  const std::size_t per = sketch_message_count(space);
  std::vector<Packet> interleaved;
  for (std::size_t c = 0; c < per; ++c)
    for (std::size_t s = 0; s < 6; ++s)
      interleaved.push_back(packets[s * per + c]);
  EXPECT_EQ(reassemble(interleaved), in_order);
  const std::vector<Packet> reversed(packets.rbegin(), packets.rend());
  EXPECT_EQ(reassemble(reversed), in_order);

  std::vector<Packet> missing = interleaved;
  missing.erase(missing.begin() + 4);
  SketchReassembler incomplete{space, tag};
  for (const Packet& p : missing) incomplete.add(message(p));
  EXPECT_THROW(incomplete.take(), std::logic_error);
}

TEST(Wire, ForeignTagsIgnored) {
  Rng rng{16};
  const auto words = rng.words(SketchSpace::seed_words_needed(16, 1));
  const SketchSpace space{16, 1, words};
  SketchReassembler reassembler{space, 0x00040000};
  Message foreign = msg1(0x00990000, 1);
  foreign.src = 2;
  reassembler.add(foreign);
  EXPECT_TRUE(reassembler.take().empty());
}

TEST(CfBuckets, BucketedSingleItemRecovered) {
  Rng rng{20};
  const auto params = SketchParams::cormode_firmani(1000, 4);
  const auto words = rng.words(sketch_seed_words(params));
  const SketchFamily family{params, words};
  for (std::uint64_t i : {0ull, 17ull, 999ull}) {
    L0Sketch s{family};
    s.update(i, -1);
    const auto sample = s.sample();
    ASSERT_TRUE(sample.has_value());
    EXPECT_EQ(sample->index, i);
    EXPECT_EQ(sample->sign, -1);
  }
}

TEST(CfBuckets, LinearityHoldsAcrossBuckets) {
  Rng rng{21};
  const auto params = SketchParams::cormode_firmani(2000, 3);
  const auto words = rng.words(sketch_seed_words(params));
  const SketchFamily family{params, words};
  L0Sketch a{family};
  L0Sketch b{family};
  L0Sketch direct{family};
  for (int i = 0; i < 50; ++i) {
    const std::uint64_t idx = rng.next_below(2000);
    a.update(idx, 1);
    direct.update(idx, 1);
    const std::uint64_t idx2 = rng.next_below(2000);
    b.update(idx2, -1);
    direct.update(idx2, -1);
  }
  a += b;
  EXPECT_EQ(a.to_words(), direct.to_words());
}

TEST(CfBuckets, WireSizeScalesWithBuckets) {
  const auto lean = SketchParams::for_universe(4096);
  const auto cf = SketchParams::cormode_firmani(4096, 4);
  EXPECT_EQ(L0Sketch::word_size(cf), 4 * L0Sketch::word_size(lean));
}

TEST(CfBuckets, SerializationRoundTripWithBuckets) {
  Rng rng{22};
  const auto params = SketchParams::cormode_firmani(512, 2);
  const auto words = rng.words(sketch_seed_words(params));
  const SketchFamily family{params, words};
  L0Sketch s{family};
  for (int i = 0; i < 30; ++i) s.update(rng.next_below(512), 1);
  const auto wire = s.to_words();
  EXPECT_EQ(L0Sketch::from_words(family, wire).to_words(), wire);
}

TEST(CfBuckets, MoreBucketsRaiseSuccessRate) {
  // The CF table layout spreads a level's survivors over buckets, so more
  // detectors are 1-sparse: the success rate must not drop (and typically
  // rises markedly for adversarial densities).
  Rng rng{23};
  auto success_rate = [&](std::uint32_t buckets) {
    int ok = 0;
    const int trials = 250;
    for (int t = 0; t < trials; ++t) {
      const auto params = SketchParams::cormode_firmani(5000, buckets);
      Rng seed_rng{static_cast<std::uint64_t>(t) * 977 + buckets};
      const auto words = seed_rng.words(sketch_seed_words(params));
      const SketchFamily family{params, words};
      L0Sketch s{family};
      std::set<std::uint64_t> support;
      for (int i = 0; i < 150; ++i) {
        const std::uint64_t idx = rng.next_below(5000);
        if (support.insert(idx).second) s.update(idx, 1);
      }
      if (s.sample()) ++ok;
    }
    return static_cast<double>(ok) / trials;
  };
  const double lean = success_rate(1);
  const double bucketed = success_rate(4);
  EXPECT_GT(bucketed, lean - 0.05);
  EXPECT_GT(bucketed, 0.85);
}

TEST(CfBuckets, SketchSpaceWithBuckets) {
  Rng rng{24};
  const std::uint32_t n = 32;
  const auto words = rng.words(SketchSpace::seed_words_needed(n, 3, 2));
  const SketchSpace space{n, 3, words, 2};
  EXPECT_EQ(space.params().buckets, 2u);
  const Graph g = random_connected(n, 20, rng);
  std::vector<Edge> incident;
  for (VertexId w : g.neighbors(3)) incident.emplace_back(3, w);
  const auto sketches = space.sketch_vertex(3, incident);
  ASSERT_EQ(sketches.size(), 3u);
  const auto sample = sketches[0].sample();
  if (sample.has_value()) {
    const Edge e = edge_from_index(sample->index, n);
    EXPECT_TRUE(e.u == 3 || e.v == 3);
  }
}

TEST(DefaultCopies, GrowsLogarithmically) {
  EXPECT_GE(default_sketch_copies(16), 2u * 4 + 8);
  EXPECT_LT(default_sketch_copies(1 << 16), 64u);
  EXPECT_GT(default_sketch_copies(1 << 16), default_sketch_copies(16));
}

}  // namespace
}  // namespace ccq
