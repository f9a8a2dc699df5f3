// Wire format for shipping sketches through O(log n)-bit messages.
//
// A serialized sketch is 3*levels words (Θ(log n) words, i.e. the
// O(log^4 n) bits of Theorem 1); a Congested Clique message carries at most
// kMaxWords of them, so one sketch becomes ceil(words/kMaxWords) messages.
// The copy index and chunk index ride in the message tag; the receiver
// reassembles per (sender, copy).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "comm/routing.hpp"
#include "sketch/graph_sketch.hpp"

namespace ccq {

/// Encode one sketch (the `copy`-th of its sender) as routed packets.
/// tag layout: tag_base | copy << 8 | chunk (copy < 2^8 is enforced; chunk
/// count is bounded by the sketch size, far below 2^8).
void append_sketch_packets(std::vector<Packet>& out, VertexId src,
                           VertexId dst, std::uint32_t tag_base,
                           std::uint32_t copy, const L0Sketch& sketch);

/// Number of messages one serialized sketch occupies.
std::size_t sketch_message_count(const SketchSpace& space);

/// Reassembles sketches from delivered messages, keyed by (sender, copy).
class SketchReassembler {
 public:
  explicit SketchReassembler(const SketchSpace& space,
                             std::uint32_t tag_base);
  // Not copyable: last_ points into this object's own slots_.
  SketchReassembler(const SketchReassembler&) = delete;
  SketchReassembler& operator=(const SketchReassembler&) = delete;

  /// Feed one delivered message (ignores messages with a foreign tag_base).
  /// Messages may come in any order; a chunk of the same (sender, copy) as
  /// the previous one, the usual case since a sketch's chunks are routed
  /// next to each other, costs no lookup.
  void add(const Message& m);

  /// All fully reassembled sketches; throws if a sketch is incomplete.
  std::map<std::pair<VertexId, std::uint32_t>, L0Sketch> take();

 private:
  using Key = std::pair<VertexId, std::uint32_t>;
  struct Slot {
    std::vector<std::uint64_t> words;
    std::size_t received{0};
  };

  const SketchSpace* space_;
  std::uint32_t tag_base_;
  std::map<Key, Slot> slots_;
  Key last_key_{};
  Slot* last_{nullptr};  ///< slots_[last_key_]; map nodes never move
};

}  // namespace ccq
