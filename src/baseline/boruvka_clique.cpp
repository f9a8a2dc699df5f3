#include "baseline/boruvka_clique.hpp"

#include <limits>
#include <map>
#include <optional>
#include <unordered_map>

#include "comm/primitives.hpp"
#include "comm/routing.hpp"
#include "graph/union_find.hpp"
#include "util/error.hpp"

namespace ccq {

namespace {
constexpr std::uint32_t kTagMwoe = 0xb101;

bool lighter(const WeightedEdge& a, const WeightedEdge& b) {
  return a.key() < b.key();
}
}  // namespace

BoruvkaCliqueResult boruvka_clique_msf(CliqueEngine& engine,
                                       const CliqueWeights& weights) {
  const std::uint32_t n = weights.n();
  check(engine.n() == n, "boruvka_clique_msf: engine/input size mismatch");
  engine.require_id_knowledge("boruvka_clique_msf");
  BoruvkaCliqueResult result;
  if (n <= 1) return result;
  const VertexId coordinator = 0;

  std::vector<VertexId> label(n);
  for (VertexId v = 0; v < n; ++v) label[v] = v;
  UnionFind uf{n};
  RoundBuffer inbox;  // reused by every phase's MWOE route

  for (;;) {
    std::map<VertexId, std::vector<VertexId>> members;
    for (VertexId v = 0; v < n; ++v) members[label[v]].push_back(v);
    if (members.size() <= 1) break;

    // R1: node -> foreign leader, lightest finite edge into that component.
    // (Finite only: a component whose every outgoing pair is a non-edge is
    // a finished real component.)
    std::unordered_map<VertexId, std::optional<WeightedEdge>> best;
    for (const auto& [leader, list] : members) best[leader] = std::nullopt;
    std::uint64_t r1_messages = 0;
    for (VertexId u = 0; u < n; ++u) {
      const VertexId cu = label[u];
      for (const auto& [leader, list] : members) {
        if (leader == cu) continue;
        std::optional<WeightedEdge> lightest;
        for (VertexId member : list) {
          if (!weights.finite(u, member)) continue;
          const WeightedEdge cand = weights.edge(u, member);
          if (!lightest || lighter(cand, *lightest)) lightest = cand;
        }
        if (!lightest) continue;  // "or no message at all"
        if (u != leader) {
          ++r1_messages;
          engine.observe(u, leader);
          engine.attribute_load(u, leader, 1, 3);
        }
        // The receiving leader learns an outgoing edge of ITS component
        // (the edge leaves `leader`'s component toward u's), and u's leader
        // will hear about the symmetric direction from members of `leader`.
        auto& slot = best[leader];
        if (!slot || lighter(*lightest, *slot)) slot = *lightest;
      }
    }
    engine.charge_verified_round(r1_messages, r1_messages * 3);

    // R2: leaders -> coordinator, one MWOE each (distinct senders).
    std::vector<Packet> mwoe;
    // Iterate the ordered `members` map, not the unordered `best` map: the
    // packet order feeds the coordinator's merge sequence, which must not
    // depend on hash iteration for replay to stay bit-identical.
    for (const auto& [leader, list] : members) {
      const auto it = best.find(leader);
      if (it != best.end() && it->second) {
        const WeightedEdge& edge = *it->second;
        mwoe.push_back({leader, coordinator,
                        msg3(kTagMwoe, edge.u, edge.v, edge.w)});
      }
    }
    if (mwoe.empty()) break;  // every remaining component is finished
    route_packets_into(engine, mwoe, inbox);

    // Local merge at v*.
    std::vector<WeightedEdge> accepted;
    for (const Message& m : inbox.inbox(coordinator)) {
      const WeightedEdge e{static_cast<VertexId>(m.word(0)),
                           static_cast<VertexId>(m.word(1)), m.word(2)};
      if (uf.unite(e.u, e.v)) accepted.push_back(e);
    }
    if (accepted.empty()) break;
    result.msf.insert(result.msf.end(), accepted.begin(), accepted.end());
    ++result.phases;

    // R3/R4: disseminate the accepted edges; all nodes relabel locally.
    std::vector<std::vector<std::uint64_t>> items;
    for (const auto& e : accepted) items.push_back({e.u, e.v, e.w});
    spray_broadcast(engine, coordinator, items);
    std::vector<VertexId> min_of(n, std::numeric_limits<VertexId>::max());
    for (VertexId v = 0; v < n; ++v) {
      const auto root = uf.find(v);
      min_of[root] = std::min(min_of[root], v);
    }
    for (VertexId v = 0; v < n; ++v) label[v] = min_of[uf.find(v)];
  }
  return result;
}

}  // namespace ccq
