#include "sketch/wire.hpp"

#include "util/error.hpp"

namespace ccq {

namespace {
constexpr std::uint32_t kCopyShift = 8;
constexpr std::uint32_t kChunkMask = 0xff;
constexpr std::uint32_t kBaseMask = 0xffff0000;
}  // namespace

void append_sketch_packets(std::vector<Packet>& out, VertexId src,
                           VertexId dst, std::uint32_t tag_base,
                           std::uint32_t copy, const L0Sketch& sketch) {
  check((tag_base & ~kBaseMask) == 0,
        "append_sketch_packets: tag_base must use the high 16 bits");
  check(copy < 0x100, "append_sketch_packets: copy index too large");
  const auto words = sketch.to_words();
  const std::size_t chunks = (words.size() + kMaxWords - 1) / kMaxWords;
  check(chunks <= kChunkMask + 1, "append_sketch_packets: sketch too large");
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t begin = c * kMaxWords;
    const std::size_t len = std::min(kMaxWords, words.size() - begin);
    const std::uint32_t tag = tag_base | (copy << kCopyShift) |
                              static_cast<std::uint32_t>(c);
    out.push_back({src, dst,
                   make_message(tag, {words.data() + begin, len})});
  }
}

std::size_t sketch_message_count(const SketchSpace& space) {
  return (space.sketch_words() + kMaxWords - 1) / kMaxWords;
}

SketchReassembler::SketchReassembler(const SketchSpace& space,
                                     std::uint32_t tag_base)
    : space_(&space), tag_base_(tag_base) {
  check((tag_base & ~kBaseMask) == 0,
        "SketchReassembler: tag_base must use the high 16 bits");
}

void SketchReassembler::add(const Message& m) {
  if ((m.tag & kBaseMask) != tag_base_) return;
  const std::uint32_t copy = (m.tag >> kCopyShift) & 0xff;
  const std::uint32_t chunk = m.tag & kChunkMask;
  const Key key{m.src, copy};
  if (last_ == nullptr || key != last_key_) {
    last_ = &slots_[key];
    last_key_ = key;
    if (last_->words.empty()) last_->words.assign(space_->sketch_words(), 0);
  }
  std::vector<std::uint64_t>& buffer = last_->words;
  const std::size_t begin = static_cast<std::size_t>(chunk) * kMaxWords;
  check(begin + m.count <= buffer.size(),
        "SketchReassembler: chunk outside sketch bounds");
  for (std::size_t i = 0; i < m.count; ++i) buffer[begin + i] = m.words[i];
  last_->received += m.count;
}

std::map<std::pair<VertexId, std::uint32_t>, L0Sketch>
SketchReassembler::take() {
  std::map<Key, L0Sketch> out;
  for (auto& [key, slot] : slots_) {
    check(slot.received == space_->sketch_words(),
          "SketchReassembler: incomplete sketch");
    out.emplace_hint(out.end(), key,
                     L0Sketch::from_words(space_->family(key.second),
                                          slot.words));
  }
  slots_.clear();
  last_ = nullptr;
  return out;
}

}  // namespace ccq
