#include "comm/routing.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>
#include <span>
#include <unordered_map>

#include "clique/load_profile.hpp"
#include "clique/trace.hpp"
#include "util/error.hpp"

namespace ccq {

namespace {

constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();

/// Working memory of the Euler-halving edge coloring, reused by every
/// recursion node of one coloring and, in route_packets_into, by every
/// wave of one route. Per-vertex arrays are sized once per vertex count and
/// returned to their idle state through `touched_`, so a halving step costs
/// O(subset) and allocates nothing once the buffers have grown.
class HalveScratch {
 public:
  /// Input multigraph of the next color() call: (left, right) endpoints.
  /// color() rewrites right endpoints in place (offset by left_size).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;

  /// Color `edges` into `color` (one entry per edge): at most
  /// bit_ceil(max degree) colors, each a matching.
  void color(std::uint32_t left_size, std::uint32_t right_size,
             std::span<std::uint32_t> color);

 private:
  struct WorkEdge {
    std::uint32_t lu;    ///< local id of the left endpoint
    std::uint32_t lv;    ///< local id of the right endpoint
    std::uint32_t real;  ///< index into `edges`, or kNone for a dummy
  };
  /// A subset order[begin, end) owning colors [offset, offset + budget).
  struct Range {
    std::uint32_t begin;
    std::uint32_t end;
    std::uint32_t offset;
    std::uint32_t budget;
  };

  std::uint32_t halve(std::uint32_t begin, std::uint32_t end,
                      std::uint32_t left_size, std::uint32_t num_vertices);
  /// True when every edge of order_[begin, end) joins the same two vertices.
  bool parallel(std::uint32_t begin, std::uint32_t end) const {
    for (std::uint32_t i = begin + 1; i < end; ++i)
      if (edges[order_[i]] != edges[order_[begin]]) return false;
    return true;
  }
  std::uint32_t local_id(std::uint32_t v) {
    if (local_of_[v] == kNone) {
      local_of_[v] = static_cast<std::uint32_t>(touched_.size());
      touched_.push_back(v);
      degree_.push_back(0);
    }
    return local_of_[v];
  }
  void add_work(std::uint32_t u, std::uint32_t v, std::uint32_t real) {
    const std::uint32_t lu = local_id(u);
    const std::uint32_t lv = local_id(v);
    ++degree_[lu];
    ++degree_[lv];
    work_.push_back({lu, lv, real});
  }

  std::vector<std::uint32_t> side_degree_;  ///< per vertex, whole input
  std::vector<std::uint32_t> local_of_;     ///< vertex -> local id or kNone
  std::vector<std::uint32_t> touched_;      ///< local id -> vertex
  std::vector<std::uint32_t> degree_;       ///< local id -> work degree
  std::vector<std::uint32_t> odd_;
  std::vector<WorkEdge> work_;
  std::vector<std::uint32_t> head_;       ///< CSR offsets, locals + 1
  std::vector<std::uint32_t> cursor_;     ///< per local: fill, then walk
  std::vector<std::uint32_t> incidence_;  ///< CSR work-edge ids
  std::vector<std::uint8_t> used_;
  std::vector<std::uint32_t> part_b_;
  std::vector<std::uint32_t> order_;  ///< edge ids, split in place
  std::vector<Range> stack_;
};

/// One Euler-halving level on order_[begin, end). The subset's odd-degree
/// vertices are first paired up with *dummy* edges (odd-left with
/// odd-right; any leftover — both sides have the same parity of odd counts
/// in a bipartite multigraph — pairs with a per-side dummy vertex), making
/// every degree even. Euler circuits of an all-even multigraph close, so
/// alternating edges along each circuit splits every vertex's (real+dummy)
/// degree exactly in half; discarding the dummies leaves real degrees split
/// as floor/ceil of d/2. Hence max degree drops to ceil(Δ/2) per level with
/// only O(#odd) dummy work — linear overall, no regularization padding.
/// Writes the first part back to order_[begin, mid) and the second to
/// order_[mid, end), each in walk order, and returns mid.
std::uint32_t HalveScratch::halve(std::uint32_t begin, std::uint32_t end,
                                  std::uint32_t left_size,
                                  std::uint32_t num_vertices) {
  const std::uint32_t dummy_left = num_vertices;
  const std::uint32_t dummy_right = num_vertices + 1;
  touched_.clear();
  degree_.clear();
  work_.clear();
  // Real subset entries first, then dummies; local ids follow first
  // appearance in that order.
  for (std::uint32_t i = begin; i < end; ++i)
    add_work(edges[order_[i]].first, edges[order_[i]].second, order_[i]);
  // Pair odd vertices in sorted order, not first-appearance order: which
  // dummy edges exist must be a function of the subset's vertex set alone
  // for replay to stay bit-identical.
  odd_.clear();
  for (std::uint32_t l = 0; l < touched_.size(); ++l)
    if (degree_[l] % 2 == 1) odd_.push_back(touched_[l]);
  std::sort(odd_.begin(), odd_.end());
  const auto odd_left = static_cast<std::size_t>(
      std::lower_bound(odd_.begin(), odd_.end(), left_size) - odd_.begin());
  const std::size_t odd_right = odd_.size() - odd_left;
  const std::size_t pairs = std::min(odd_left, odd_right);
  for (std::size_t i = 0; i < pairs; ++i)
    add_work(odd_[i], odd_[odd_left + i], kNone);
  for (std::size_t j = pairs; j < odd_left; ++j)
    add_work(odd_[j], dummy_right, kNone);
  for (std::size_t j = pairs; j < odd_right; ++j)
    add_work(dummy_left, odd_[odd_left + j], kNone);
  // (dummy_left/right themselves end with even degree: the leftover counts
  // are even because the two sides' odd counts share parity.)

  // CSR incidence over local ids; each list in work order.
  const auto locals = static_cast<std::uint32_t>(touched_.size());
  head_.resize(locals + 1);
  head_[0] = 0;
  for (std::uint32_t l = 0; l < locals; ++l)
    head_[l + 1] = head_[l] + degree_[l];
  cursor_.assign(head_.begin(), head_.end() - 1);
  incidence_.resize(head_[locals]);
  for (std::uint32_t w = 0; w < work_.size(); ++w) {
    incidence_[cursor_[work_[w].lu]++] = w;
    incidence_[cursor_[work_[w].lv]++] = w;
  }
  std::copy(head_.begin(), head_.end() - 1, cursor_.begin());
  used_.assign(work_.size(), 0);
  auto next_unused = [&](std::uint32_t l) -> std::uint32_t {
    std::uint32_t& pos = cursor_[l];
    while (pos < head_[l + 1] && used_[incidence_[pos]]) ++pos;
    return pos < head_[l + 1] ? incidence_[pos] : kNone;
  };
  // The subset now lives in work_, so part a goes straight back to order_.
  std::uint32_t mid = begin;
  part_b_.clear();
  for (std::uint32_t start = 0; start < locals; ++start) {
    while (next_unused(start) != kNone) {
      // All degrees even: the trail from `start` closes into a circuit, and
      // circuits in bipartite graphs have even length, so strict
      // alternation splits every visit pair across the two parts.
      int parity = 0;
      std::uint32_t at = start;
      for (;;) {
        const std::uint32_t w = next_unused(at);
        if (w == kNone) break;
        used_[w] = 1;
        const WorkEdge& e = work_[w];
        if (e.real != kNone) {
          if (parity == 0)
            order_[mid++] = e.real;
          else
            part_b_.push_back(e.real);
        }
        parity ^= 1;
        at = e.lu == at ? e.lv : e.lu;
      }
    }
  }
  check(mid - begin + part_b_.size() == end - begin,
        "bipartite_edge_coloring: euler split lost edges");
  std::copy(part_b_.begin(), part_b_.end(), order_.begin() + mid);
  for (std::uint32_t v : touched_) local_of_[v] = kNone;
  return mid;
}

void HalveScratch::color(std::uint32_t left_size, std::uint32_t right_size,
                         std::span<std::uint32_t> color) {
  if (edges.empty()) return;
  // With dummies a halving step holds up to 2m work edges and 4m CSR
  // entries, all indexed by uint32.
  check(edges.size() <= kNone / 4, "bipartite_edge_coloring: too many edges");
  // Recursive Euler halving with per-level even-degree padding: max degree
  // drops from Δ to ceil(Δ/2) per level, so after ceil(log2 Δ) levels every
  // leaf subset is a matching and gets one color — at most bit_ceil(Δ) <
  // 2Δ colors, each a proper matching, in O(m log Δ) work.
  const std::uint32_t num_vertices = left_size + right_size;
  side_degree_.assign(num_vertices, 0);
  std::uint32_t delta = 1;
  for (auto& [u, d] : edges) {
    check(u < left_size && d < right_size,
          "bipartite_edge_coloring: endpoint out of range");
    d += left_size;  // right side offset by left_size
    delta = std::max(delta, ++side_degree_[u]);
    delta = std::max(delta, ++side_degree_[d]);
  }
  if (local_of_.size() < num_vertices + 2)
    local_of_.resize(num_vertices + 2, kNone);
  const auto m = static_cast<std::uint32_t>(edges.size());
  order_.resize(m);
  std::iota(order_.begin(), order_.end(), 0u);
  stack_.clear();
  stack_.push_back({0, m, 0, std::bit_ceil(delta)});
  while (!stack_.empty()) {
    const Range r = stack_.back();
    stack_.pop_back();
    if (r.begin == r.end) continue;
    if (r.budget <= 1) {
      for (std::uint32_t i = r.begin; i < r.end; ++i)
        color[order_[i]] = r.offset;
      continue;
    }
    if (parallel(r.begin, r.end)) {
      // One left and one right vertex: the walk alternates along the edges
      // in order (a lone dummy, if any, closes the circuit last), so every
      // halving sends even positions to the first part and odd ones to the
      // second, order kept. Position i thus ends at its bits read in
      // reverse as an offset inside the range's color block.
      const int bits = std::countr_zero(r.budget);
      for (std::uint32_t i = r.begin; i < r.end; ++i) {
        std::uint32_t pos = i - r.begin;
        std::uint32_t rev = 0;
        for (int b = 0; b < bits; ++b, pos >>= 1) rev = rev << 1 | (pos & 1);
        color[order_[i]] = r.offset + rev;
      }
      continue;
    }
    const std::uint32_t mid = halve(r.begin, r.end, left_size, num_vertices);
    const std::uint32_t half = r.budget / 2;
    stack_.push_back({r.begin, mid, r.offset, half});
    stack_.push_back({mid, r.end, r.offset + half, half});
  }
}

/// The colors of each distinct wave shape met in one route, so a route
/// colors every shape once. A wave's shape is its (src, dst) sequence with
/// each sender replaced by its rank among the wave's distinct senders in
/// ascending id order, and each receiver by its rank among the wave's
/// receivers. This is exact: HalveScratch::color reads vertex ids only
/// through equality (local ids, parallel runs), the first-appearance order
/// of local ids and the sorted order of odd vertices split at left_size,
/// and an order-preserving relabelling of each side keeps all three. So a
/// wave's colors are a function of its shape, and coloring the shape itself
/// (left_size = #senders, right_size = #receivers) gives them.
class WaveMemo {
 public:
  explicit WaveMemo(std::uint32_t n)
      : src_rank_(n, kNone), dst_rank_(n, kNone) {}

  /// Colors of edges[wave[i]] for every i, valid until the next call.
  std::span<const std::uint32_t> color(
      const std::vector<std::pair<std::uint32_t, std::uint32_t>>& edges,
      std::span<const std::uint32_t> wave, HalveScratch& scratch) {
    const std::uint64_t hash = canonicalize(edges, wave);
    const auto begin = static_cast<std::uint32_t>(shape_pool_.size());
    const auto size = static_cast<std::uint32_t>(shape_.size());
    const auto [it, fresh] = known_.try_emplace(hash, Shape{begin, size});
    if (!fresh) {
      const auto stored = shape_pool_.begin() + it->second.begin;
      if (std::equal(shape_.begin(), shape_.end(), stored,
                     stored + it->second.size))
        return {color_pool_.data() + it->second.begin, it->second.size};
      // Another shape holds this hash: color this one too, unindexed.
    }
    shape_pool_.insert(shape_pool_.end(), shape_.begin(), shape_.end());
    color_pool_.resize(begin + size);
    const std::span<std::uint32_t> out{color_pool_.data() + begin, size};
    scratch.edges = shape_;
    scratch.color(static_cast<std::uint32_t>(senders_.size()),
                  static_cast<std::uint32_t>(receivers_.size()), out);
    return out;
  }

 private:
  struct Shape {
    std::uint32_t begin;  ///< offset into shape_pool_ and color_pool_
    std::uint32_t size;
  };

  /// Writes the wave's shape to shape_ (and its sides to senders_ and
  /// receivers_) and returns a hash of it.
  std::uint64_t canonicalize(
      const std::vector<std::pair<std::uint32_t, std::uint32_t>>& edges,
      std::span<const std::uint32_t> wave) {
    senders_.clear();
    receivers_.clear();
    for (std::uint32_t e : wave) {
      const auto [s, d] = edges[e];
      if (src_rank_[s] == kNone) {
        src_rank_[s] = 0;
        senders_.push_back(s);
      }
      if (dst_rank_[d] == kNone) {
        dst_rank_[d] = 0;
        receivers_.push_back(d);
      }
    }
    std::sort(senders_.begin(), senders_.end());
    std::sort(receivers_.begin(), receivers_.end());
    for (std::uint32_t r = 0; r < senders_.size(); ++r)
      src_rank_[senders_[r]] = r;
    for (std::uint32_t r = 0; r < receivers_.size(); ++r)
      dst_rank_[receivers_[r]] = r;
    shape_.clear();
    std::uint64_t hash = wave.size();
    for (std::uint32_t e : wave) {
      const std::uint32_t s = src_rank_[edges[e].first];
      const std::uint32_t d = dst_rank_[edges[e].second];
      shape_.emplace_back(s, d);
      hash ^= static_cast<std::uint64_t>(s) << 32 | d;
      hash *= 0x9e3779b97f4a7c15ull;
      hash ^= hash >> 29;
    }
    for (std::uint32_t s : senders_) src_rank_[s] = kNone;
    for (std::uint32_t d : receivers_) dst_rank_[d] = kNone;
    return hash;
  }

  std::vector<std::uint32_t> src_rank_;  ///< vertex -> sender rank or kNone
  std::vector<std::uint32_t> dst_rank_;  ///< vertex -> receiver rank or kNone
  std::vector<std::uint32_t> senders_;   ///< this wave's, sorted
  std::vector<std::uint32_t> receivers_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> shape_;
  /// First shape stored under each hash; looked up, never iterated.
  std::unordered_map<std::uint64_t, Shape> known_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> shape_pool_;
  std::vector<std::uint32_t> color_pool_;  ///< parallel to shape_pool_
};

}  // namespace

std::vector<std::uint32_t> bipartite_edge_coloring(
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& raw_edges,
    std::uint32_t left_size, std::uint32_t right_size) {
  HalveScratch scratch;
  scratch.edges = raw_edges;
  std::vector<std::uint32_t> color(raw_edges.size(), 0);
  scratch.color(left_size, right_size, color);
  return color;
}

void route_packets_into(CliqueEngine& engine,
                        const std::vector<Packet>& packets, RoundBuffer& out,
                        RouteStats* stats) {
  const std::uint32_t n = engine.n();
  TraceScope trace_scope{engine, "comm/route"};
  out.reset(n);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  std::vector<std::uint32_t> packet_of_edge;
  edges.reserve(packets.size());
  packet_of_edge.reserve(packets.size());
  std::vector<std::uint64_t> send_load(n, 0);
  std::vector<std::uint64_t> recv_load(n, 0);
  check(packets.size() < kNone, "route_packets_into: too many packets");
  for (std::uint32_t i = 0; i < packets.size(); ++i) {
    const Packet& p = packets[i];
    check(p.src < n && p.dst < n,
          "route_packets_into: endpoint out of range");
    out.add_count(p.dst);
    if (p.src == p.dst) continue;  // local delivery is free in the model
    edges.emplace_back(p.src, p.dst);
    packet_of_edge.push_back(i);
    ++send_load[p.src];
    ++recv_load[p.dst];
  }
  out.commit_counts();
  // Local deliveries land first in each inbox, in packet order — matching
  // the order the nested-vector implementation produced.
  for (const Packet& p : packets) {
    if (p.src != p.dst) continue;
    Message& m = out.place(p.dst);
    m = p.msg;
    m.src = p.src;
    m.dst = p.dst;
  }
  RouteStats local{};
  local.max_send_load = *std::max_element(send_load.begin(), send_load.end());
  local.max_recv_load = *std::max_element(recv_load.begin(), recv_load.end());
  if (!edges.empty()) {
    // Overload pre-pass: the regularized coloring pads the multigraph to
    // (#vertices) * bit_ceil(max degree) edges, which is wasteful when a
    // few nodes carry load far above n (e.g. a coordinator absorbing
    // n*polylog sketches). First-fit the packets into waves of per-vertex
    // degree <= n — at most ceil(2L/n)+1 waves for max load L — and color
    // each wave independently; total rounds stay O(1 + L/n) and the
    // padding stays linear in the packet count.
    std::vector<std::uint32_t> wave_of(edges.size(), 0);
    std::uint32_t num_waves = 1;
    {
      // send_use[v][w] counts v's packets in wave w (and recv_use likewise);
      // first-fit over waves keeps both below n. Per-vertex full waves only
      // grow, so scanning can start at the larger of the two endpoints'
      // first-free hints.
      std::vector<std::vector<std::uint32_t>> send_use(n);
      std::vector<std::vector<std::uint32_t>> recv_use(n);
      std::vector<std::uint32_t> send_hint(n, 0);
      std::vector<std::uint32_t> recv_hint(n, 0);
      for (std::uint32_t e = 0; e < edges.size(); ++e) {
        const std::uint32_t s = edges[e].first;
        const std::uint32_t d = edges[e].second;
        std::uint32_t w = std::max(send_hint[s], recv_hint[d]);
        for (;; ++w) {
          if (send_use[s].size() <= w) send_use[s].resize(w + 1, 0);
          if (recv_use[d].size() <= w) recv_use[d].resize(w + 1, 0);
          if (send_use[s][w] < n && recv_use[d][w] < n) break;
        }
        ++send_use[s][w];
        ++recv_use[d][w];
        while (send_hint[s] < send_use[s].size() &&
               send_use[s][send_hint[s]] >= n)
          ++send_hint[s];
        while (recv_hint[d] < recv_use[d].size() &&
               recv_use[d][recv_hint[d]] >= n)
          ++recv_hint[d];
        wave_of[e] = w;
        num_waves = std::max(num_waves, w + 1);
      }
    }
    // Bucket the edges by wave in one stable counting pass: each wave keeps
    // its packets in packet order, which is all its coloring depends on.
    std::vector<std::uint32_t> wave_begin(num_waves + 1, 0);
    for (std::uint32_t w : wave_of) ++wave_begin[w + 1];
    std::partial_sum(wave_begin.begin(), wave_begin.end(), wave_begin.begin());
    std::vector<std::uint32_t> by_wave(edges.size());
    {
      std::vector<std::uint32_t> next(wave_begin.begin(), wave_begin.end() - 1);
      for (std::uint32_t e = 0; e < edges.size(); ++e)
        by_wave[next[wave_of[e]]++] = e;
    }
    // Color each wave; give wave w a disjoint color block. The per-edge
    // color reuses wave_of's storage, which bucketing no longer needs.
    std::vector<std::uint32_t> color = std::move(wave_of);
    HalveScratch scratch;
    WaveMemo memo{n};
    std::uint32_t color_base = 0;
    for (std::uint32_t w = 0; w < num_waves; ++w) {
      const std::span<const std::uint32_t> wave{
          by_wave.data() + wave_begin[w], wave_begin[w + 1] - wave_begin[w]};
      const auto wave_color = memo.color(edges, wave, scratch);
      std::uint32_t used = 0;
      for (std::size_t i = 0; i < wave.size(); ++i) {
        color[wave[i]] = color_base + wave_color[i];
        used = std::max(used, wave_color[i] + 1);
      }
      color_base += used;
    }
    const std::uint32_t num_colors =
        1 + *std::max_element(color.begin(), color.end());
    // Colors are grouped into batches of up to `n * messages_per_link`
    // simultaneous relays; each batch is delivered in two rounds
    // (src -> relay, relay -> dst), bandwidth-legal because within one
    // color no two packets share a src or share a dst.
    const std::uint64_t colors_per_batch =
        static_cast<std::uint64_t>(n) * engine.messages_per_link();
    const std::uint64_t batches =
        (num_colors + colors_per_batch - 1) / colors_per_batch;
    // Group packet counts/words per batch for exact accounting.
    std::vector<std::uint64_t> batch_msgs(batches, 0);
    std::vector<std::uint64_t> batch_words(batches, 0);
    for (std::size_t e = 0; e < edges.size(); ++e) {
      const std::uint64_t b = color[e] / colors_per_batch;
      batch_msgs[b] += 2;  // two hops
      // Relay hop carries the final destination alongside the payload: one
      // extra O(log n)-bit word.
      batch_words[b] += 2ull * packets[packet_of_edge[e]].msg.count + 1;
    }
    for (std::uint64_t b = 0; b < batches; ++b) {
      engine.charge_verified_round(batch_msgs[b] / 2 + batch_msgs[b] % 2,
                                   (batch_words[b] + 1) / 2);
      engine.charge_verified_round(batch_msgs[b] / 2, batch_words[b] / 2);
    }
    for (std::uint64_t r = 0; r < kScheduleRounds; ++r)
      engine.charge_verified_round(0, 0);
    if (engine.has_observer()) {
      for (std::size_t e = 0; e < edges.size(); ++e) {
        const VertexId relay =
            static_cast<VertexId>(color[e] % n);
        engine.observe(edges[e].first, relay);
        engine.observe(relay, edges[e].second);
      }
    }
    // Per-hop load attribution, mirroring the observer replay above: hop 1
    // carries the payload plus the one-word destination header, hop 2 the
    // payload alone, summing to the charged batch totals. The profile
    // pointer is hoisted out of the per-edge loop (this is the hot
    // attribution site that justifies src/comm's slot in CL006's
    // allowlist).
    if (LoadProfile* load = engine.load_profile()) {
      for (std::size_t e = 0; e < edges.size(); ++e) {
        const VertexId relay = static_cast<VertexId>(color[e] % n);
        const std::uint64_t payload = packets[packet_of_edge[e]].msg.count;
        load->add_flow(edges[e].first, relay, 1, payload + 1);
        load->add_flow(relay, edges[e].second, 1, payload);
      }
    }
    local.rounds = 2 * batches + kScheduleRounds;
    local.color_batches = batches;
    // Deliver.
    for (std::size_t e = 0; e < edges.size(); ++e) {
      const Packet& p = packets[packet_of_edge[e]];
      Message& m = out.place(p.dst);
      m = p.msg;
      m.src = p.src;
      m.dst = p.dst;
    }
  }
  if (stats) *stats = local;
}

}  // namespace ccq
