#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "clique/engine.hpp"
#include "clique/round_buffer.hpp"

// Misuse guards on the per-word hot path are CLIQUE_DCHECK-backed: active in
// Debug and sanitizer builds (CLIQUE_ENABLE_ASSERTS), compiled out of
// optimized release builds. Throw-path expectations only hold when they are
// compiled in — and calling the misuse itself would be UB otherwise.
#if !defined(NDEBUG) || defined(CLIQUE_ENABLE_ASSERTS)
#define CCQ_GUARDS_ACTIVE 1
#else
#define CCQ_GUARDS_ACTIVE 0
#endif

namespace ccq {
namespace {

TEST(Engine, ConfigValidation) {
  EXPECT_THROW(CliqueEngine{EngineConfig{.n = 0}}, InvalidArgument);
  EXPECT_THROW((CliqueEngine{
                   EngineConfig{.n = 4, .messages_per_link = 0}}),
               InvalidArgument);
}

TEST(Engine, NodeLimitIsExact) {
  // The constructor allocates nothing (buffers size on the first round),
  // so both ends of the limit are cheap to construct.
  const CliqueEngine at_limit{{.n = kMaxEngineN}};
  EXPECT_EQ(at_limit.n(), kMaxEngineN);
  EXPECT_THROW(CliqueEngine{EngineConfig{.n = kMaxEngineN + 1}},
               InvalidArgument);
}

TEST(Engine, RoundDeliversMessages) {
  CliqueEngine engine{{.n = 4}};
  const RoundBuffer& arena = engine.round_arena([](VertexId u, Outbox& out) {
    if (u == 0) out.send(3, msg2(7, 10, 20));
  });
  ASSERT_EQ(arena.inbox(3).size(), 1u);
  const Message& m = arena.inbox(3)[0];
  EXPECT_EQ(m.src, 0u);
  EXPECT_EQ(m.dst, 3u);
  EXPECT_EQ(m.tag, 7u);
  EXPECT_EQ(m.word(0), 10u);
  EXPECT_EQ(m.word(1), 20u);
  EXPECT_TRUE(arena.inbox(0).empty());
  EXPECT_EQ(engine.metrics().rounds, 1u);
  EXPECT_EQ(engine.metrics().messages, 1u);
  EXPECT_EQ(engine.metrics().words, 2u);
}

TEST(Engine, BandwidthEnforcedPerLink) {
  CliqueEngine engine{{.n = 3}};
  EXPECT_THROW(engine.round_arena([](VertexId u, Outbox& out) {
    if (u == 0) {
      out.send(1, msg0(1));
      out.send(1, msg0(2));  // second message on the same link: illegal
    }
  }),
               ProtocolError);
}

TEST(Engine, WiderBudgetAllowsMore) {
  CliqueEngine engine{{.n = 3, .messages_per_link = 2}};
  const RoundBuffer& arena = engine.round_arena([](VertexId u, Outbox& out) {
    if (u == 0) {
      out.send(1, msg0(1));
      out.send(1, msg0(2));
    }
  });
  EXPECT_EQ(arena.inbox(1).size(), 2u);
}

TEST(Engine, DistinctLinksAreIndependent) {
  CliqueEngine engine{{.n = 4}};
  const RoundBuffer& arena = engine.round_arena([](VertexId u, Outbox& out) {
    // Every node sends to every other node: the full n(n-1) pattern.
    for (VertexId v = 0; v < 4; ++v)
      if (v != u) out.send(v, msg1(0, u));
  });
  for (VertexId v = 0; v < 4; ++v) EXPECT_EQ(arena.inbox(v).size(), 3u);
  EXPECT_EQ(engine.metrics().messages, 12u);
}

TEST(Engine, SelfSendRejected) {
  CliqueEngine engine{{.n = 2}};
  EXPECT_THROW(engine.round_arena([](VertexId u, Outbox& out) {
    if (u == 1) out.send(1, msg0(0));
  }),
               ProtocolError);
}

TEST(Engine, OutOfRangeDestinationRejected) {
  CliqueEngine engine{{.n = 2}};
  EXPECT_THROW(engine.round_arena([](VertexId u, Outbox& out) {
    if (u == 0) out.send(5, msg0(0));
  }),
               ProtocolError);
}

TEST(Engine, RoundOfOnlyListedSendersSend) {
  CliqueEngine engine{{.n = 5}};
  int calls = 0;
  const std::vector<VertexId> senders{1, 3};
  engine.round_of_arena(senders, [&](VertexId u, Outbox& out) {
    ++calls;
    out.send(0, msg1(0, u));
  });
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(engine.metrics().messages, 2u);
}

TEST(Engine, SilentRoundSkipCountsRounds) {
  CliqueEngine engine{{.n = 2}};
  engine.skip_silent_rounds(1'000'000'000ull);
  EXPECT_EQ(engine.metrics().rounds, 1'000'000'000ull);
  EXPECT_EQ(engine.metrics().messages, 0u);
}

TEST(Engine, SilentRoundSkipRejectsCounterOverflow) {
  // The KT1 clock-coding algorithm passes super-polynomial k; a wrap of the
  // 64-bit round counter must be a ProtocolError, not silent corruption.
  CliqueEngine engine{{.n = 2}};
  const auto big = std::numeric_limits<std::uint64_t>::max() - 5;
  engine.skip_silent_rounds(big);
  EXPECT_EQ(engine.metrics().rounds, big);
  EXPECT_THROW(engine.skip_silent_rounds(10), ProtocolError);
  EXPECT_EQ(engine.metrics().rounds, big);  // untouched on failure
  engine.skip_silent_rounds(5);             // exact fit still fine
  EXPECT_EQ(engine.metrics().rounds, std::numeric_limits<std::uint64_t>::max());
}

TEST(Engine, PerLinkBudgetAbove16BitsDoesNotWrap) {
  // Regression: used_ was uint16_t while budgets are uint32_t — with
  // messages_per_link > 65535 (wide_bandwidth_messages_per_link exceeds a
  // million for large n) the per-link counter wrapped at 65536 and the
  // budget check silently restarted from zero.
  const std::uint32_t budget = 70'000;
  CliqueEngine engine{{.n = 2, .messages_per_link = budget}};
  const RoundBuffer& arena = engine.round_arena([&](VertexId u, Outbox& out) {
    if (u == 0)
      for (std::uint32_t i = 0; i < budget; ++i) out.send(1, msg0(i));
  });
  EXPECT_EQ(arena.inbox(1).size(), budget);
  // One message beyond the budget must still throw (counter reached 70000,
  // not 70000 mod 65536).
  EXPECT_THROW(engine.round_arena([&](VertexId u, Outbox& out) {
    if (u == 0)
      for (std::uint32_t i = 0; i <= budget; ++i) out.send(1, msg0(i));
  }),
               ProtocolError);
}

TEST(Engine, ArenaInboxesFollowSenderOrder) {
  CliqueEngine engine{{.n = 6}};
  const auto& arena = engine.round_arena([](VertexId u, Outbox& out) {
    for (VertexId v = 0; v < 6; ++v)
      if (v != u) out.send(v, msg2(3, u, v));
  });
  EXPECT_EQ(arena.n(), 6u);
  EXPECT_EQ(arena.total_messages(), 30u);
  for (VertexId v = 0; v < 6; ++v) {
    const auto in = arena.inbox(v);
    ASSERT_EQ(in.size(), 5u);
    // (sender, submission) order: senders ascending, skipping v itself.
    VertexId expect_src = 0;
    for (const Message& m : in) {
      if (expect_src == v) ++expect_src;
      EXPECT_EQ(m.src, expect_src);
      EXPECT_EQ(m.dst, v);
      EXPECT_EQ(m.word(1), v);
      ++expect_src;
    }
  }
}

TEST(Engine, ArenaIsReusedAcrossRounds) {
  CliqueEngine engine{{.n = 4, .threads = 1}};
  const RoundBuffer& a = engine.round_arena([](VertexId u, Outbox& out) {
    if (u == 1) out.send(0, msg1(1, 11));
  });
  EXPECT_EQ(&a, &engine.round_arena([](VertexId u, Outbox& out) {
    if (u == 2) out.send(0, msg1(2, 22));
  }));
  ASSERT_EQ(a.inbox(0).size(), 1u);
  EXPECT_EQ(a.inbox(0)[0].src, 2u);  // previous round's content replaced
}

TEST(RoundBufferType, CountingSortContract) {
  RoundBuffer buf{3};
  buf.add_count(2);
  buf.add_count(0, 2);
  buf.commit_counts();
#if CCQ_GUARDS_ACTIVE
  EXPECT_THROW(buf.add_count(1), std::logic_error);  // counting is closed
#endif
  buf.place(0).tag = 10;
  buf.place(2).tag = 30;
  buf.place(0).tag = 11;
#if CCQ_GUARDS_ACTIVE
  EXPECT_THROW(buf.place(0), std::logic_error);  // bucket 0 announced 2
#endif
  ASSERT_EQ(buf.inbox(0).size(), 2u);
  EXPECT_EQ(buf.inbox(0)[0].tag, 10u);
  EXPECT_EQ(buf.inbox(0)[1].tag, 11u);
  EXPECT_TRUE(buf.inbox(1).empty());
  ASSERT_EQ(buf.inbox(2).size(), 1u);
  EXPECT_EQ(buf.inbox(2)[0].tag, 30u);
  buf.reset(2);  // reusable
  buf.add_count(1);
  buf.commit_counts();
  buf.place(1).tag = 7;
  EXPECT_EQ(buf.total_messages(), 1u);
}

TEST(Engine, ObserverSeesEveryMessage) {
  CliqueEngine engine{{.n = 3}};
  std::vector<std::pair<VertexId, VertexId>> seen;
  engine.set_observer([&](VertexId s, VertexId d) { seen.push_back({s, d}); });
  engine.round_arena([](VertexId u, Outbox& out) {
    if (u == 0) out.send(2, msg0(0));
    if (u == 1) out.send(0, msg0(0));
  });
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], (std::pair<VertexId, VertexId>{0, 2}));
  EXPECT_EQ(seen[1], (std::pair<VertexId, VertexId>{1, 0}));
}

TEST(Engine, ChargeVerifiedRoundAccumulates) {
  CliqueEngine engine{{.n = 4}};
  engine.charge_verified_round(10, 30);
  engine.charge_verified_round(5, 15);
  EXPECT_EQ(engine.metrics().rounds, 2u);
  EXPECT_EQ(engine.metrics().messages, 15u);
  EXPECT_EQ(engine.metrics().words, 45u);
  EXPECT_EQ(engine.metrics().max_messages_in_round, 10u);
}

TEST(Engine, AbsorbVirtualAddsCounters) {
  CliqueEngine engine{{.n = 4}};
  engine.charge_verified_round(1, 1);
  Metrics sub;
  sub.rounds = 7;
  sub.messages = 100;
  sub.words = 300;
  engine.absorb_virtual(sub);
  EXPECT_EQ(engine.metrics().rounds, 8u);
  EXPECT_EQ(engine.metrics().messages, 101u);
  EXPECT_EQ(engine.metrics().words, 301u);
}

TEST(Engine, MetricsScopeDelta) {
  CliqueEngine engine{{.n = 4}};
  engine.charge_verified_round(5, 5);
  auto scope = engine.scope();
  engine.charge_verified_round(3, 9);
  const auto delta = scope.delta();
  EXPECT_EQ(delta.rounds, 1u);
  EXPECT_EQ(delta.messages, 3u);
  EXPECT_EQ(delta.words, 9u);
}

TEST(Engine, WideBandwidthFormula) {
  // ceil(log2 n)^4 messages per link for the O(log^5 n)-bit variant.
  EXPECT_EQ(wide_bandwidth_messages_per_link(256), 8u * 8 * 8 * 8);
  EXPECT_GE(wide_bandwidth_messages_per_link(2), 1u);
}

TEST(Engine, Kt0RequiresIdResolution) {
  CliqueEngine kt0{{.n = 4, .knowledge = Knowledge::KT0}};
  EXPECT_FALSE(kt0.ids_resolved());
  EXPECT_THROW(kt0.require_id_knowledge("test"), ProtocolError);
  kt0.mark_ids_resolved();
  EXPECT_NO_THROW(kt0.require_id_knowledge("test"));
}

TEST(Engine, Kt1HasIdKnowledgeNatively) {
  CliqueEngine kt1{{.n = 4}};
  EXPECT_TRUE(kt1.ids_resolved());
  EXPECT_NO_THROW(kt1.require_id_knowledge("test"));
}

TEST(MessageType, Constructors) {
  const auto m = msg4(9, 1, 2, 3, 4);
  EXPECT_EQ(m.count, 4);
  EXPECT_EQ(m.word(3), 4u);
#if CCQ_GUARDS_ACTIVE
  EXPECT_THROW(m.word(4), std::logic_error);
#endif
  const std::vector<std::uint64_t> five(5, 0);
  EXPECT_THROW(make_message(0, {five.data(), five.size()}), std::logic_error);
}

}  // namespace
}  // namespace ccq
