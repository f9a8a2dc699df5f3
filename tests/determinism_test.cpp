// Parallel execution must be invisible: the engine's threaded round path
// has to produce bit-identical inboxes, outputs and Metrics to the serial
// engine (threads = 1) for every lane count. These tests pin that contract
// on raw rounds and on the two flagship algorithms (GC, Lotker CC-MST), and
// pin the packed wire format against a reference delivery built straight
// from the send schedule.
#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "clique/engine.hpp"
#include "clique/round_buffer.hpp"
#include "clique/trace.hpp"
#include "clique/trace_export.hpp"
#include "core/gc.hpp"
#include "graph/generators.hpp"
#include "lotker/cc_mst.hpp"
#include "util/random.hpp"

namespace ccq {
namespace {

void expect_same_metrics(const Metrics& a, const Metrics& b) {
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.words, b.words);
  EXPECT_EQ(a.max_messages_in_round, b.max_messages_in_round);
}

void expect_same_arena(const RoundBuffer& a, const RoundBuffer& b) {
  ASSERT_EQ(a.n(), b.n());
  for (VertexId v = 0; v < a.n(); ++v) {
    const auto ia = a.inbox(v);
    const auto ib = b.inbox(v);
    ASSERT_EQ(ia.size(), ib.size()) << "inbox " << v;
    for (std::size_t i = 0; i < ia.size(); ++i) {
      EXPECT_EQ(ia[i].src, ib[i].src);
      EXPECT_EQ(ia[i].dst, ib[i].dst);
      EXPECT_EQ(ia[i].tag, ib[i].tag);
      ASSERT_EQ(ia[i].count, ib[i].count);
      for (std::size_t w = 0; w < kMaxWords; ++w)
        EXPECT_EQ(ia[i].words[w], ib[i].words[w]);
    }
  }
}

// One sender's outbox as plain data: (destination, message) pairs in
// submission order. Schedules written this way drive the engine (through
// send_all) and the reference delivery below from the very same sends.
using Sends = std::vector<std::pair<VertexId, Message>>;
using Schedule = Sends (*)(VertexId);

void send_all(Schedule schedule, VertexId u, Outbox& out) {
  for (const auto& [dst, m] : schedule(u)) out.send(dst, m);
}

// Reference delivery, straight from the model and independent of the wire
// format: v's inbox holds every message sent to v in sender id order, then
// submission order, with src/dst filled in and every word past count zero.
std::vector<std::vector<Message>> reference_inboxes(std::uint32_t n,
                                                    Schedule schedule) {
  std::vector<std::vector<Message>> inboxes(n);
  for (VertexId u = 0; u < n; ++u)
    for (const auto& [dst, sent] : schedule(u)) {
      Message m;
      m.src = u;
      m.dst = dst;
      m.tag = sent.tag;
      m.count = sent.count;
      for (std::size_t w = 0; w < sent.count; ++w) m.words[w] = sent.words[w];
      inboxes[dst].push_back(m);
    }
  return inboxes;
}

void expect_reference_delivery(
    const RoundBuffer& got, const std::vector<std::vector<Message>>& want) {
  ASSERT_EQ(got.n(), want.size());
  for (VertexId v = 0; v < got.n(); ++v) {
    const auto in = got.inbox(v);
    ASSERT_EQ(in.size(), want[v].size()) << "inbox " << v;
    for (std::size_t i = 0; i < in.size(); ++i) {
      EXPECT_EQ(in[i].src, want[v][i].src);
      EXPECT_EQ(in[i].dst, want[v][i].dst);
      EXPECT_EQ(in[i].tag, want[v][i].tag);
      ASSERT_EQ(in[i].count, want[v][i].count);
      for (std::size_t w = 0; w < kMaxWords; ++w)
        EXPECT_EQ(in[i].words[w], want[v][i].words[w]);
    }
  }
}

// A send pattern with skewed per-sender load (sender u sends to u % 7 + 1
// pseudo-random destinations) so shard buffers have unequal sizes — the
// stable merge has to get the interleaving right, not just the totals.
Sends skewed_sends(VertexId u) {
  Sends sends;
  const std::uint32_t fanout = u % 7 + 1;
  for (std::uint32_t i = 0; i < fanout; ++i) {
    const VertexId dst = (u * 2654435761u + i * 40503u) % 512;
    if (dst != u) sends.emplace_back(dst, msg2(u % 13, u, i));
  }
  return sends;
}

void skewed_send(VertexId u, Outbox& out) { send_all(skewed_sends, u, out); }

TEST(Determinism, ParallelRoundMatchesSerialBitForBit) {
  // n = 512 >= kParallelMinSenders, so the threads=8 engine actually takes
  // the sharded path while threads=1 is the legacy serial loop.
  CliqueEngine serial{{.n = 512, .threads = 1}};
  CliqueEngine parallel{{.n = 512, .threads = 8}};
  for (int round = 0; round < 3; ++round) {
    const RoundBuffer& expected = serial.round_arena(skewed_send);
    const RoundBuffer& got = parallel.round_arena(skewed_send);
    expect_same_arena(got, expected);
  }
  expect_same_metrics(parallel.metrics(), serial.metrics());
}

TEST(Determinism, ParallelAllToAllMatchesSerial) {
  CliqueEngine serial{{.n = 512, .threads = 1}};
  CliqueEngine parallel{{.n = 512, .threads = 8}};
  const auto all_to_all = [](VertexId u, Outbox& out) {
    for (VertexId v = 0; v < 512; ++v)
      if (v != u) out.send(v, msg1(0, u));
  };
  const RoundBuffer& expected = serial.round_arena(all_to_all);
  expect_same_arena(parallel.round_arena(all_to_all), expected);
  expect_same_metrics(parallel.metrics(), serial.metrics());
  EXPECT_EQ(parallel.metrics().messages, 512ull * 511);
}

TEST(Determinism, ParallelRoundOfSubsetMatchesSerial) {
  CliqueEngine serial{{.n = 512, .threads = 1}};
  CliqueEngine parallel{{.n = 512, .threads = 8}};
  std::vector<VertexId> senders;
  for (VertexId u = 0; u < 512; u += 3) senders.push_back(u);
  const RoundBuffer& expected = serial.round_of_arena(senders, skewed_send);
  expect_same_arena(parallel.round_of_arena(senders, skewed_send), expected);
  expect_same_metrics(parallel.metrics(), serial.metrics());
}

TEST(Determinism, ParallelProtocolErrorMatchesSerial) {
  // A budget violation must surface as the same ProtocolError whether the
  // offending sender ran on the main thread or on a worker, and metrics
  // must stay untouched in both engines.
  const auto violate = [](VertexId u, Outbox& out) {
    out.send((u + 1) % 512, msg0(0));
    if (u == 300) out.send(301, msg0(1));  // second message on link 300->301
  };
  CliqueEngine serial{{.n = 512, .threads = 1}};
  CliqueEngine parallel{{.n = 512, .threads = 8}};
  EXPECT_THROW(serial.round_arena(violate), ProtocolError);
  EXPECT_THROW(parallel.round_arena(violate), ProtocolError);
  expect_same_metrics(parallel.metrics(), serial.metrics());
  EXPECT_EQ(serial.metrics().rounds, 0u);
}

TEST(Determinism, DeliveryMatchesReferenceBitForBit) {
  // The packed wire format is a pure transport change: decoded inboxes
  // (including the zeroed words beyond count), Metrics, and delivery order
  // must equal the reference, serial and sharded alike.
  const auto want = reference_inboxes(512, skewed_sends);
  std::uint64_t messages = 0;
  std::uint64_t words = 0;
  for (const auto& inbox : want)
    for (const Message& m : inbox) {
      ++messages;
      words += m.count;
    }
  for (const std::uint32_t threads : {1u, 8u}) {
    CliqueEngine engine{{.n = 512, .threads = threads}};
    for (int round = 0; round < 3; ++round)
      expect_reference_delivery(engine.round_arena(skewed_send), want);
    EXPECT_EQ(engine.metrics().rounds, 3u);
    EXPECT_EQ(engine.metrics().messages, 3 * messages);
    EXPECT_EQ(engine.metrics().words, 3 * words);
  }
}

Sends width_extremes(VertexId u) {
  // Messages chosen to hit every width code in one round: zero tags, wide
  // tags, 0..4 words, 2^8/2^16/2^32 payload boundaries, and a stray word
  // past count that must not travel.
  const VertexId dst = (u + 1) % 256;
  switch (u % 6) {
    case 0: return {{dst, msg0(0)}};
    case 1: return {{dst, msg1(0xFFFFFFFFu, ~0ull)}};
    case 2: return {{dst, msg2(0xFFu, 0x100ull, 0xFFull)}};
    case 3:
      return {{dst, msg4(0x10000u, 0xFFFFull, 0x10000ull, 0xFFFFFFFFull,
                         0x100000000ull)}};
    case 4: {
      Message m = msg1(2, 0x7F);
      m.words[3] = ~0ull;
      return {{dst, m}};
    }
    default: return {{dst, msg1(1, 0)}};
  }
}

TEST(Determinism, PackedWidthExtremesSurviveDelivery) {
  CliqueEngine engine{{.n = 256, .threads = 1}};
  // A decoded round of all-ones messages first leaves every slot of the
  // grow-only arena dirty, so the extremes round must overwrite each word
  // it delivers, the zeroed words past count included.
  (void)engine
      .round_arena([](VertexId u, Outbox& out) {
        out.send((u + 1) % 256, msg4(~0u, ~0ull, ~0ull, ~0ull, ~0ull));
      })
      .inbox(0);
  expect_reference_delivery(
      engine.round_arena([](VertexId u, Outbox& out) {
        send_all(width_extremes, u, out);
      }),
      reference_inboxes(256, width_extremes));
  EXPECT_EQ(engine.metrics().messages, 512u);
}

TEST(Determinism, FusedWindowMatchesUnfusedRounds) {
  // A static k-round schedule run through fused_rounds_arena must yield the
  // same per-round inboxes, Metrics, and trace NDJSON as k generic rounds
  // driving the same schedule — fusion is an execution detail, not a model
  // change.
  constexpr std::uint32_t kN = 96;
  constexpr std::uint32_t kRounds = 4;
  const auto schedule = [](VertexId u, std::uint32_t r, Outbox& out) {
    const std::uint32_t fanout = (u + r) % 5;
    for (std::uint32_t i = 0; i < fanout; ++i) {
      const VertexId dst = (u * 31 + r * 17 + i) % kN;
      if (dst != u) out.send(dst, msg2(r, u, i));
    }
  };

  Trace unfused_trace, fused_trace;
  CliqueEngine unfused{{.n = kN, .threads = 1}};
  CliqueEngine fused{{.n = kN, .threads = 1}};
  unfused.set_trace(&unfused_trace);
  fused.set_trace(&fused_trace);

  // The fused arena lives in its own engine, so it stays valid while the
  // unfused engine runs each round and is compared against it.
  const RoundBuffer* arena = nullptr;
  {
    TraceScope scope{fused, "fusion-parity"};
    arena = &fused.fused_rounds_arena(kRounds, schedule);
  }
  {
    TraceScope scope{unfused, "fusion-parity"};
    for (std::uint32_t r = 0; r < kRounds; ++r) {
      const RoundBuffer& unfused_round = unfused.round_arena(
          [&](VertexId u, Outbox& out) { schedule(u, r, out); });
      for (VertexId v = 0; v < kN; ++v) {
        const auto in = arena->inbox_round(v, r);
        const auto expect = unfused_round.inbox(v);
        ASSERT_EQ(in.size(), expect.size())
            << "round " << r << " inbox " << v;
        for (std::size_t i = 0; i < in.size(); ++i) {
          EXPECT_EQ(in[i].src, expect[i].src);
          EXPECT_EQ(in[i].dst, expect[i].dst);
          EXPECT_EQ(in[i].tag, expect[i].tag);
          ASSERT_EQ(in[i].count, expect[i].count);
          for (std::size_t w = 0; w < in[i].count; ++w)
            EXPECT_EQ(in[i].words[w], expect[i].words[w]);
        }
      }
    }
  }
  expect_same_metrics(fused.metrics(), unfused.metrics());
  // The observability layer must not see the fusion either: per-round
  // records and the exported NDJSON are byte-identical.
  TraceExportOptions opts;
  opts.include_rounds = true;
  EXPECT_EQ(trace_to_ndjson(fused_trace, opts),
            trace_to_ndjson(unfused_trace, opts));
}

TEST(Determinism, FusedSubsetWindowMatchesUnfused) {
  constexpr std::uint32_t kN = 128;
  constexpr std::uint32_t kRounds = 3;
  std::vector<VertexId> senders;
  for (VertexId u = 0; u < kN; u += 2) senders.push_back(u);
  const auto schedule = [](VertexId u, std::uint32_t r, Outbox& out) {
    out.send((u + r + 1) % kN, msg1(r, u));
  };
  CliqueEngine unfused{{.n = kN, .threads = 8}};
  CliqueEngine fused{{.n = kN, .threads = 8}};
  const RoundBuffer& arena =
      fused.fused_rounds_of_arena(senders, kRounds, schedule);
  for (std::uint32_t r = 0; r < kRounds; ++r) {
    const RoundBuffer& unfused_round = unfused.round_of_arena(
        senders, [&](VertexId u, Outbox& out) { schedule(u, r, out); });
    for (VertexId v = 0; v < kN; ++v) {
      const auto in = arena.inbox_round(v, r);
      const auto expect = unfused_round.inbox(v);
      ASSERT_EQ(in.size(), expect.size()) << "round " << r << " inbox " << v;
      for (std::size_t i = 0; i < in.size(); ++i) {
        EXPECT_EQ(in[i].src, expect[i].src);
        EXPECT_EQ(in[i].tag, expect[i].tag);
      }
    }
  }
  expect_same_metrics(fused.metrics(), unfused.metrics());
}

TEST(Determinism, GcIdenticalAcrossThreadCounts) {
  Rng gen{1234};
  const Graph g = random_components(128, 3, 64, gen);
  Rng rng_serial{99};
  Rng rng_parallel{99};
  CliqueEngine serial{{.n = 128, .threads = 1}};
  CliqueEngine parallel{{.n = 128, .threads = 8}};
  const GcResult a = gc_spanning_forest(serial, g, rng_serial);
  const GcResult b = gc_spanning_forest(parallel, g, rng_parallel);
  EXPECT_EQ(a.connected, b.connected);
  EXPECT_EQ(a.monte_carlo_ok, b.monte_carlo_ok);
  EXPECT_EQ(a.lotker_phases, b.lotker_phases);
  ASSERT_EQ(a.forest.size(), b.forest.size());
  for (std::size_t i = 0; i < a.forest.size(); ++i) {
    EXPECT_EQ(a.forest[i].u, b.forest[i].u);
    EXPECT_EQ(a.forest[i].v, b.forest[i].v);
  }
  expect_same_metrics(parallel.metrics(), serial.metrics());
}

TEST(Determinism, LotkerMstIdenticalAcrossThreadCounts) {
  Rng gen{777};
  const WeightedGraph wg = random_weighted_clique(96, gen);
  const CliqueWeights weights = CliqueWeights::from_graph(wg);
  CliqueEngine serial{{.n = 96, .threads = 1}};
  CliqueEngine parallel{{.n = 96, .threads = 8}};
  const LotkerState a = cc_mst_full(serial, weights);
  const LotkerState b = cc_mst_full(parallel, weights);
  EXPECT_EQ(a.phases_run, b.phases_run);
  EXPECT_EQ(a.cluster_of, b.cluster_of);
  ASSERT_EQ(a.tree_edges.size(), b.tree_edges.size());
  for (std::size_t i = 0; i < a.tree_edges.size(); ++i) {
    EXPECT_EQ(a.tree_edges[i].u, b.tree_edges[i].u);
    EXPECT_EQ(a.tree_edges[i].v, b.tree_edges[i].v);
    EXPECT_EQ(a.tree_edges[i].w, b.tree_edges[i].w);
  }
  expect_same_metrics(parallel.metrics(), serial.metrics());
}

}  // namespace
}  // namespace ccq
