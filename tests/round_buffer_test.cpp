// Edge-case coverage for the engine's message arena (clique/round_buffer).
//
// The parallel engine's determinism proof leans on RoundBuffer reproducing
// the (sender, submission) inbox order exactly; these tests pin the boundary
// shapes the property/determinism suites rarely hit dead-on: empty rounds,
// a single sender, fully skewed destination loads, and arena reuse across
// rounds whose message counts shrink (the capacity-keeping reset path).
#include <gtest/gtest.h>

#include <vector>

#include "clique/engine.hpp"
#include "clique/message.hpp"
#include "clique/round_buffer.hpp"
#include "util/error.hpp"

// Arena misuse guards are CLIQUE_DCHECK-backed: active in Debug and
// sanitizer builds (CLIQUE_ENABLE_ASSERTS), compiled out of optimized
// release builds — where performing the misuse at all would be UB, so the
// throw-path tests are skipped rather than partially rewritten.
#if !defined(NDEBUG) || defined(CLIQUE_ENABLE_ASSERTS)
#define CCQ_GUARDS_ACTIVE 1
#else
#define CCQ_GUARDS_ACTIVE 0
#endif

namespace ccq {
namespace {

Message tagged(VertexId src, VertexId dst, std::uint32_t tag) {
  Message m = msg1(tag, tag);
  m.src = src;
  m.dst = dst;
  return m;
}

TEST(RoundBuffer, EmptyRoundHasEmptyInboxesEverywhere) {
  RoundBuffer buf{8};
  buf.commit_counts();
  EXPECT_EQ(buf.n(), 8u);
  EXPECT_EQ(buf.total_messages(), 0u);
  for (VertexId v = 0; v < 8; ++v) EXPECT_TRUE(buf.inbox(v).empty());
}

TEST(RoundBuffer, ZeroReceiversIsValid) {
  RoundBuffer buf{0};
  buf.commit_counts();
  EXPECT_EQ(buf.total_messages(), 0u);
  EXPECT_EQ(buf.n(), 0u);
}

TEST(RoundBuffer, SingleSenderPreservesSubmissionOrder) {
  RoundBuffer buf{4};
  // One sender (vertex 3) sends two messages to each other vertex.
  for (VertexId dst = 0; dst < 3; ++dst) buf.add_count(dst, 2);
  buf.commit_counts();
  std::uint32_t tag = 0;
  for (int copy = 0; copy < 2; ++copy)
    for (VertexId dst = 0; dst < 3; ++dst)
      buf.place(dst) = tagged(3, dst, tag++);
  EXPECT_EQ(buf.total_messages(), 6u);
  for (VertexId dst = 0; dst < 3; ++dst) {
    const auto inbox = buf.inbox(dst);
    ASSERT_EQ(inbox.size(), 2u);
    // Submission order within the bucket: first copy, then second.
    EXPECT_EQ(inbox[0].tag, dst);
    EXPECT_EQ(inbox[1].tag, dst + 3);
    for (const Message& m : inbox) EXPECT_EQ(m.src, 3u);
  }
  EXPECT_TRUE(buf.inbox(3).empty());
}

TEST(RoundBuffer, AllMessagesToOneDestination) {
  constexpr std::uint32_t kN = 16;
  RoundBuffer buf{kN};
  const VertexId hot = 5;
  buf.add_count(hot, kN - 1);
  buf.commit_counts();
  for (VertexId src = 0; src < kN; ++src) {
    if (src == hot) continue;
    buf.place(hot) = tagged(src, hot, src);
  }
  EXPECT_EQ(buf.total_messages(), kN - 1);
  for (VertexId v = 0; v < kN; ++v) {
    if (v == hot) continue;
    EXPECT_TRUE(buf.inbox(v).empty());
  }
  const auto inbox = buf.inbox(hot);
  ASSERT_EQ(inbox.size(), kN - 1);
  VertexId expect_src = 0;
  for (const Message& m : inbox) {
    if (expect_src == hot) ++expect_src;
    EXPECT_EQ(m.src, expect_src);
    ++expect_src;
  }
}

TEST(RoundBuffer, OverfillAndOutOfRangeAreRejected) {
#if CCQ_GUARDS_ACTIVE
  RoundBuffer buf{3};
  buf.add_count(1, 1);
  EXPECT_THROW(buf.add_count(3), std::logic_error);  // dst out of range
  EXPECT_THROW(buf.place(1), std::logic_error);      // not committed yet
  buf.commit_counts();
  EXPECT_THROW(buf.add_count(1), std::logic_error);  // counting closed
  buf.place(1) = tagged(0, 1, 7);
  EXPECT_THROW(buf.place(1), std::logic_error);  // bucket already full
  EXPECT_THROW(buf.place(2), std::logic_error);  // bucket announced empty
#else
  GTEST_SKIP() << "arena guards compiled out (release build)";
#endif
}

TEST(RoundBuffer, ReuseAcrossRoundsWithShrinkingCounts) {
  constexpr std::uint32_t kN = 8;
  RoundBuffer buf{kN};
  // Round sizes shrink: reset() must rewind offsets and totals without the
  // previous round's larger footprint leaking into inboxes.
  for (std::uint32_t per_dst : {5u, 3u, 1u, 0u}) {
    buf.reset(kN);
    for (VertexId dst = 0; dst < kN; ++dst) buf.add_count(dst, per_dst);
    buf.commit_counts();
    for (std::uint32_t i = 0; i < per_dst; ++i)
      for (VertexId dst = 0; dst < kN; ++dst)
        buf.place(dst) = tagged(0, dst, per_dst * 100 + i);
    EXPECT_EQ(buf.total_messages(),
              static_cast<std::size_t>(per_dst) * kN);
    for (VertexId dst = 0; dst < kN; ++dst) {
      const auto inbox = buf.inbox(dst);
      ASSERT_EQ(inbox.size(), per_dst);
      for (std::uint32_t i = 0; i < per_dst; ++i)
        EXPECT_EQ(inbox[i].tag, per_dst * 100 + i);
    }
  }
}

TEST(RoundBuffer, ReuseShrinkingReceiverCount) {
  RoundBuffer buf{64};
  for (VertexId dst = 0; dst < 64; ++dst) buf.add_count(dst);
  buf.commit_counts();
  for (VertexId dst = 0; dst < 64; ++dst) buf.place(dst) = tagged(0, dst, dst);
  // Shrink n itself: old offsets beyond the new n must be unreachable.
  buf.reset(4);
  EXPECT_EQ(buf.n(), 4u);
  buf.add_count(2, 2);
  buf.commit_counts();
  buf.place(2) = tagged(1, 2, 11);
  buf.place(2) = tagged(3, 2, 12);
  EXPECT_EQ(buf.total_messages(), 2u);
  EXPECT_TRUE(buf.inbox(0).empty());
  ASSERT_EQ(buf.inbox(2).size(), 2u);
  EXPECT_EQ(buf.inbox(2)[0].tag, 11u);
  EXPECT_EQ(buf.inbox(2)[1].tag, 12u);
#if CCQ_GUARDS_ACTIVE
  EXPECT_THROW(buf.inbox(7), std::logic_error);  // beyond the shrunk n
#endif
}

// The engine drives the same shapes end-to-end through the arena API, so
// the shard-merge cursors (not just RoundBuffer in isolation) see the
// shrinking-round reuse pattern.
TEST(RoundBufferEngine, EngineArenaReuseAcrossShrinkingRounds) {
  constexpr std::uint32_t kN = 12;
  CliqueEngine engine{{.n = kN}};
  for (std::uint32_t fanout : {11u, 5u, 1u, 0u}) {
    const RoundBuffer& arena = engine.round_arena([&](VertexId u, Outbox& out) {
      for (std::uint32_t i = 0; i < fanout; ++i) {
        const VertexId dst = (u + 1 + i) % kN;
        if (dst != u) out.send(dst, msg1(fanout, u));
      }
    });
    std::size_t total = 0;
    for (VertexId v = 0; v < kN; ++v) {
      for (const Message& m : arena.inbox(v)) {
        EXPECT_EQ(m.tag, fanout);
        EXPECT_EQ(m.dst, v);
      }
      total += arena.inbox(v).size();
    }
    EXPECT_EQ(total, arena.total_messages());
    EXPECT_LE(total, static_cast<std::size_t>(fanout) * kN);
  }
}

}  // namespace
}  // namespace ccq
