// Packed wire format for engine-internal message delivery.
//
// The model charges O(log n) bits per message (paper, Section 1.2), but the
// in-memory Message struct is 48 bytes: a 14-byte header plus four 64-bit
// words, mostly zeros for the 1- and 2-word messages the algorithms
// actually send. The delivery hot path (shard fill -> counting sort ->
// arena placement) is memory-bound, so moving 48 bytes per message is the
// throughput ceiling. This codec bit-packs each record to its information
// content — typically 3-7 bytes — so the same pass moves ~3-6x fewer bytes:
//
//   header   1 byte   count (3 bits) | payload width code (2) | tag width
//                     code (2) | reserved (1)
//   src      1/2/4 bytes, fixed per engine from n-1 (src_width(n))
//   tag      0/1/2/4 bytes (0 bytes iff tag == 0, the common case)
//   payload  count x 1/2/4/8 bytes, width from the max payload word
//
// The destination is NOT stored: records live in per-destination buckets
// (the arena) or carry a {dst, len} sidecar (shard route entries), so dst
// is implied by position. Decode restores a bit-identical Message — width
// codes cover the full 64-bit range, and words past count decode as zero
// (determinism_test pins delivery against a reference built from the send
// schedule).
//
// Codec I/O uses single unaligned 8-byte loads/stores (memcpy, which GCC
// and Clang lower to one mov) with variable cursor advance; buffers
// therefore guarantee kBufferSlack readable/writable bytes past the logical
// end (PackedBuf below, and RoundBuffer's byte arena). Writes INTO the
// packed arena use copy_record (exact length, no slop): bucket cursors
// advance by true record length, so an 8-byte tail store could clobber a
// neighbouring record already placed by an earlier sender or another lane.
//
// This header is the only clique/ file allowed to use memcpy (cliquelint
// CL003 allowlist) — every other layer goes through encode/decode and the
// copy helpers below.
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "clique/message.hpp"
#include "graph/graph.hpp"
#include "util/error.hpp"

namespace ccq::packed {

/// Largest possible record: header + 4-byte src + 4-byte tag + 4 x 8-byte
/// payload words.
inline constexpr std::size_t kMaxRecordBytes = 1 + 4 + 4 + kMaxWords * 8;

/// Readable/writable slack every packed buffer keeps past its logical end,
/// so fixed 8-byte codec I/O at any record offset stays in bounds — sized
/// for the worst chain: a 2-byte staging header plus a full slop-copied
/// record (copy_record_slop writes kMaxRecordBytes + 7 bytes).
inline constexpr std::size_t kBufferSlack = 64;
static_assert(kBufferSlack >= 2 + kMaxRecordBytes + 7);

/// Byte width of the src field: fixed per engine so decode needs no
/// per-record branch chain (ids are < n, known at engine construction).
inline std::uint32_t src_width(std::uint32_t n) {
  const std::uint32_t max_id = n - 1;
  return max_id < 0x100u ? 1u : (max_id < 0x10000u ? 2u : 4u);
}

namespace detail {

inline std::uint64_t load_u64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

inline void store_u64(std::uint8_t* p, std::uint64_t v) {
  std::memcpy(p, &v, 8);
}

/// Mask selecting the low `bytes` bytes (bytes in 1..8).
inline std::uint64_t byte_mask(std::uint32_t bytes) {
  return bytes >= 8 ? ~std::uint64_t{0}
                    : (std::uint64_t{1} << (8 * bytes)) - 1;
}

/// Width code (0..3) -> byte width {1, 2, 4, 8}.
inline std::uint32_t payload_width(std::uint32_t code) { return 1u << code; }

/// Width code (0..3) -> byte width {0, 1, 2, 4}.
inline std::uint32_t tag_width(std::uint32_t code) {
  return code == 0 ? 0u : (1u << (code - 1));
}

inline std::uint32_t payload_code(std::uint64_t max_word) {
  if (max_word < 0x100ull) return 0;
  if (max_word < 0x10000ull) return 1;
  if (max_word < 0x100000000ull) return 2;
  return 3;
}

inline std::uint32_t tag_code(std::uint32_t tag) {
  if (tag == 0) return 0;
  if (tag < 0x100u) return 1;
  if (tag < 0x10000u) return 2;
  return 3;
}

}  // namespace detail

/// Record length implied by a header byte (records are self-delimiting
/// given the engine's src width) — what lets route sidecars and staging
/// streams skip records without a length field.
inline std::size_t record_len(const std::uint8_t* p, std::uint32_t src_w) {
  const std::uint32_t hdr = p[0];
  const std::uint32_t count = hdr & 7u;
  const std::uint32_t pw = detail::payload_width((hdr >> 3) & 3u);
  const std::uint32_t tw = detail::tag_width((hdr >> 5) & 3u);
  return 1 + src_w + tw + count * pw;
}

/// Payload word count of the record at p (rollback bookkeeping).
inline std::uint32_t record_count(const std::uint8_t* p) { return *p & 7u; }

/// Sender id of the record at p (observer replay).
inline VertexId record_src(const std::uint8_t* p, std::uint32_t src_w) {
  return static_cast<VertexId>(detail::load_u64(p + 1) &
                               detail::byte_mask(src_w));
}

/// Encode (src, m) at `out`, which must have kBufferSlack writable bytes.
/// Returns the record length. m.dst is NOT encoded (implied by bucket).
CLIQUE_ALWAYS_INLINE std::size_t encode(const Message& m, VertexId src,
                                        std::uint32_t src_w,
                                        std::uint8_t* out) {
  const std::uint32_t count = m.count;
  std::uint64_t max_word = 0;
  for (std::uint32_t i = 0; i < count; ++i) max_word |= m.words[i];
  const std::uint32_t pc = detail::payload_code(max_word);
  const std::uint32_t tc = detail::tag_code(m.tag);
  out[0] = static_cast<std::uint8_t>(count | (pc << 3) | (tc << 5));
  std::uint8_t* p = out + 1;
  detail::store_u64(p, src);
  p += src_w;
  detail::store_u64(p, m.tag);
  p += detail::tag_width(tc);
  const std::uint32_t pw = detail::payload_width(pc);
  for (std::uint32_t i = 0; i < count; ++i) {
    detail::store_u64(p, m.words[i]);
    p += pw;
  }
  return static_cast<std::size_t>(p - out);
}

/// Decode the record at `p` (kBufferSlack readable bytes) into `m`, with
/// `dst` supplied by the caller from the record's bucket. Returns the
/// record length.
inline std::size_t decode(const std::uint8_t* p, std::uint32_t src_w,
                          VertexId dst, Message& m) {
  const std::uint32_t hdr = p[0];
  const std::uint32_t count = hdr & 7u;
  const std::uint32_t pw = detail::payload_width((hdr >> 3) & 3u);
  const std::uint32_t tw = detail::tag_width((hdr >> 5) & 3u);
  const std::uint8_t* q = p + 1;
  m.src = static_cast<VertexId>(detail::load_u64(q) & detail::byte_mask(src_w));
  q += src_w;
  m.dst = dst;
  m.tag = tw == 0 ? 0u
                  : static_cast<std::uint32_t>(detail::load_u64(q) &
                                               detail::byte_mask(tw));
  q += tw;
  m.count = static_cast<std::uint8_t>(count);
  const std::uint64_t mask = detail::byte_mask(pw);
  for (std::uint32_t i = 0; i < count; ++i) {
    m.words[i] = detail::load_u64(q) & mask;
    q += pw;
  }
  for (std::uint32_t i = count; i < kMaxWords; ++i) m.words[i] = 0;
  return static_cast<std::size_t>(q - p);
}

/// Routing sidecar for one packed record in a shard buffer: packed records
/// do not store their destination, so the fill pass records (dst, len)
/// pairs the merge uses for counting-sort placement without re-parsing
/// headers. Packed into 4 bytes — record lengths fit 6 bits
/// (kMaxRecordBytes == 41), leaving 26 bits of destination — because the
/// placement pass streams this sidecar once per record and the 8-byte
/// layout doubled its share of the merge's memory traffic. This caps an
/// engine at kRouteMaxDst + 1 nodes (kMaxEngineN, clique/engine.hpp).
inline constexpr std::uint32_t kRouteLenBits = 6;
inline constexpr std::uint32_t kRouteMaxDst = (1u << (32 - kRouteLenBits)) - 1;
static_assert(kMaxRecordBytes < (1u << kRouteLenBits),
              "record length must fit the Route length field");

struct Route {
  Route() = default;
  Route(std::uint32_t dst, std::uint32_t len)
      : bits((dst << kRouteLenBits) | len) {}
  std::uint32_t dst() const { return bits >> kRouteLenBits; }
  std::uint32_t len() const { return bits & ((1u << kRouteLenBits) - 1); }

  std::uint32_t bits{0};
};

inline std::uint16_t load_u16(const std::uint8_t* p) {
  std::uint16_t v;
  std::memcpy(&v, p, 2);
  return v;
}

inline void store_u16(std::uint8_t* p, std::uint16_t v) {
  std::memcpy(p, &v, 2);
}

/// Copy one record into an APPEND-ONLY stream with 8-byte slop stores
/// (source and destination must both honour kBufferSlack; writes at most
/// len + 7 <= kMaxRecordBytes + 7 bytes). Whole 8-byte chunks beat a
/// variable-length memcpy on the staging hot path — the typical 4-7 byte
/// record is one load/store pair instead of a libc call; never use against
/// the arena, where slop would clobber neighbours.
inline void copy_record_slop(std::uint8_t* dst, const std::uint8_t* src,
                             std::size_t len) {
  std::memcpy(dst, src, 8);
  for (std::size_t i = 8; i < len; i += 8) std::memcpy(dst + i, src + i, 8);
}

/// Copy one record of `len` bytes WITHOUT writing past len: destination
/// cursors in the arena advance by true record length, so slop stores would
/// clobber neighbouring records (possibly placed by another lane). Overlapped
/// fixed-width tail copies keep this branch-light for the 2..41-byte range.
inline void copy_record(std::uint8_t* dst, const std::uint8_t* src,
                        std::size_t len) {
  if (len >= 8) {
    std::memcpy(dst, src, 8);
    std::size_t i = 8;
    for (; i + 8 <= len; i += 8) std::memcpy(dst + i, src + i, 8);
    std::memcpy(dst + len - 8, src + len - 8, 8);
  } else if (len >= 4) {
    std::memcpy(dst, src, 4);
    std::memcpy(dst + len - 4, src + len - 4, 4);
  } else if (len > 0) {
    // len is 2 or 3 (header + 1-byte src is the minimum record).
    std::memcpy(dst, src, 2);
    dst[len - 1] = src[len - 1];
  }
}

/// Append-only byte stream with the slack invariant: `end` is the logical
/// size, the vector's size() is capacity, and every append keeps
/// kBufferSlack writable bytes available — so encode() can always issue its
/// fixed 8-byte stores. Sized-to-capacity (instead of resize-per-record)
/// keeps sanitizer container annotations happy and avoids zero-filling 41
/// bytes per record.
class PackedBuf {
 public:
  void clear() { end_ = 0; }
  std::size_t size() const { return end_; }
  std::uint8_t* data() { return bytes_.data(); }
  const std::uint8_t* data() const { return bytes_.data(); }

  /// Writable position for one appended record (grows geometrically).
  std::uint8_t* grow_for_record() {
    if (end_ + kBufferSlack > bytes_.size())
      bytes_.resize(std::max<std::size_t>(2 * bytes_.size(),
                                          end_ + 4 * kBufferSlack));
    return bytes_.data() + end_;
  }

  void advance(std::size_t len) { end_ += len; }
  void truncate(std::size_t at) {
    CLIQUE_DCHECK(at <= end_, "PackedBuf::truncate: beyond logical end");
    end_ = at;
  }

 private:
  std::vector<std::uint8_t> bytes_;
  std::size_t end_{0};
};

}  // namespace ccq::packed
