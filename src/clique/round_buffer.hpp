// Arena-backed per-round message delivery.
//
// The original engine materialized every round's inboxes as a fresh
// std::vector<std::vector<Message>> — n heap allocations plus one per
// inbox growth, every round. RoundBuffer replaces that with a single flat
// arena bucket-sorted by destination:
//
//   counting pass   add_count(dst) per message (or per shard subtotal),
//   commit_counts() prefix-sums the counts into bucket offsets,
//   placement pass  place(dst) hands out slots left-to-right per bucket,
//
// so a *stable* placement pass (messages visited in (sender, submission)
// order) reproduces exactly the inbox order the nested-vector engine
// produced. The buffer is reused across rounds: reset() rewinds it without
// releasing capacity, making steady-state rounds allocation-free.
//
// Two fill protocols (chosen per reset), one per client:
//
//   Message slots  add_count() / place() fill a flat Message arena —
//                  comm/routing's route_packets_into, which builds each
//                  relay round's inboxes itself;
//   packed bytes   add_bucket() / byte_data() fill a flat byte arena of
//                  packed records (clique/packed_message) through the
//                  engine's byte cursors. Records are decoded back into
//                  Message form lazily, on the first inbox()/data() access —
//                  a round whose inboxes are never read (acks,
//                  fixed-schedule phases) never pays the decode.
//                  Decode-on-access mutates internal state and is
//                  DRIVER-THREAD-ONLY, like every other phase transition of
//                  this class.
//
// Both arenas are grow-only: reset() keeps their storage, and every slot
// and byte a round announces is overwritten before it is read (place()
// must fill every announced slot; packed::decode writes every Message
// field, the zeroed words past count included), so no round pays to
// value-initialize the arena again.
//
// The arena also generalizes to `rounds` fused sub-rounds (superstep
// fusion): buckets are keyed (destination, sub-round) with sub-rounds
// adjacent per destination, so inbox(v) is still one contiguous span — all
// of v's fused traffic, sub-round-major — and inbox_round(v, r) carves out
// one sub-round. The single-round engine path is the rounds == 1 case.
//
// inbox(v) exposes bucket v as std::span<const Message>, valid until the
// next reset().
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "clique/message.hpp"
#include "clique/packed_message.hpp"
#include "graph/graph.hpp"
#include "util/error.hpp"

namespace ccq {

class RoundBuffer {
 public:
  RoundBuffer() = default;
  explicit RoundBuffer(std::uint32_t n) { reset(n); }

  /// Rewind to `n` empty inboxes in the counting phase. Keeps capacity.
  /// `rounds` fused sub-rounds (1 = a normal round); `packed` selects the
  /// packed-byte fill protocol (the engine's), otherwise Message slots.
  void reset(std::uint32_t n, std::uint32_t rounds = 1, bool packed = false);

  /// Counting phase, Message slots: announce `k` future messages for `dst`
  /// (sub-round 0 — the single-round form comm/routing uses).
  void add_count(VertexId dst, std::size_t k = 1);

  /// Counting phase, packed bytes: announce `msgs` messages totalling
  /// `bytes` packed bytes for bucket `b` = dst * rounds + sub-round.
  void add_bucket(std::size_t b, std::size_t msgs, std::size_t bytes);

  /// Freeze counts into bucket offsets and open the placement phase. Every
  /// announced slot must then be filled via place() (or the per-shard
  /// cursors the engine derives from offset()).
  void commit_counts();

  /// Placement phase (Message slots): the next free slot of `dst`'s bucket
  /// in sub-round 0. Filling in a stable order (sender id, then submission
  /// order) reproduces the engine's delivery order.
  Message& place(VertexId dst);

  std::uint32_t n() const { return n_; }
  std::uint32_t rounds() const { return rounds_; }
  bool packed() const { return packed_; }
  std::size_t total_messages() const { return offsets_.back(); }
  std::size_t total_bytes() const {
    return packed_ ? byte_offsets_.back() : 0;
  }

  /// Receiver v's inbox: all fused sub-rounds, sub-round-major. Valid until
  /// the next reset(). First access on a packed arena decodes it
  /// (driver-thread-only).
  std::span<const Message> inbox(VertexId v) const {
    CLIQUE_DCHECK(v < n_, "RoundBuffer::inbox: receiver out of range");
    if (packed_ && !decoded_) decode_all();
    const std::size_t lo = offsets_[static_cast<std::size_t>(v) * rounds_];
    const std::size_t hi =
        offsets_[static_cast<std::size_t>(v + 1) * rounds_];
    return {slots_.data() + lo, hi - lo};
  }

  /// Receiver v's messages from fused sub-round r only.
  std::span<const Message> inbox_round(VertexId v, std::uint32_t r) const {
    CLIQUE_DCHECK(v < n_ && r < rounds_,
                  "RoundBuffer::inbox_round: receiver or round out of range");
    if (packed_ && !decoded_) decode_all();
    const std::size_t b = static_cast<std::size_t>(v) * rounds_ + r;
    return {slots_.data() + offsets_[b], offsets_[b + 1] - offsets_[b]};
  }

  /// Message count of v's inbox without forcing a packed decode (the
  /// engine's load-profile merge wants counts, not payloads).
  std::size_t inbox_size(VertexId v) const {
    return offsets_[static_cast<std::size_t>(v + 1) * rounds_] -
           offsets_[static_cast<std::size_t>(v) * rounds_];
  }

  /// Start of bucket `b` in the flat arena, in slots (placement phase); the
  /// engine's parallel merge derives per-shard write cursors from this.
  std::size_t offset(std::size_t b) const { return offsets_[b]; }
  /// Start of bucket `b` in the packed byte arena.
  std::size_t byte_offset(std::size_t b) const { return byte_offsets_[b]; }

  /// All delivered messages, bucket-sorted (decodes first if the arena is
  /// packed, so load-profile link audits can walk them).
  Message* data() {
    if (packed_ && !decoded_) decode_all();
    return slots_.data();
  }
  /// Packed placement target: byte arena with packed::kBufferSlack writable
  /// slack past total_bytes(). Engine-only; records must be written with
  /// packed::copy_record (no slop past each record's true length).
  std::uint8_t* byte_data() { return bytes_.data(); }

 private:
  void decode_all() const;

  std::uint32_t n_{0};
  std::uint32_t rounds_{1};
  bool packed_{false};
  bool committed_{false};
  std::uint32_t src_width_{1};
  // Decode happens behind const accessors (inbox on a const arena ref);
  // driver-thread-only, like reset/commit.
  mutable bool decoded_{false};
  mutable std::vector<Message> slots_;  // bucket-sorted messages (slot
                                        // fill, or packed after decode);
                                        // grow-only
  std::vector<std::size_t> offsets_;    // counting: offsets_[b+1] = count(b);
                                        // committed: prefix sums, n*rounds+1
  std::vector<std::uint8_t> bytes_;     // packed record arena (grow-only)
  std::vector<std::size_t> byte_offsets_;  // packed byte prefix sums
  std::vector<std::size_t> cursor_;     // next free slot per bucket (place())
};

}  // namespace ccq
