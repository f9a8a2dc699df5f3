// Micro-benchmarks (google-benchmark) for the hot substrate operations:
// field arithmetic, k-wise hashing, sketch updates/addition/sampling,
// union-find, and the routing edge-coloring. These are engineering
// benchmarks (wall-clock of the simulator), not reproductions of paper
// quantities — those live in the bench_* table binaries.
//
// The binary first prints a serial-vs-parallel engine round-throughput
// table (and writes it to BENCH_engine.json for machine consumption) so
// the perf trajectory of the clique engine is tracked across PRs, then
// runs the google-benchmark suite.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <vector>

#include "bench_util.hpp"
#include "clique/engine.hpp"
#include "comm/routing.hpp"
#include "comm/sorting.hpp"
#include "graph/generators.hpp"
#include "graph/sequential.hpp"
#include "graph/union_find.hpp"
#include "hash/kwise.hpp"
#include "sketch/graph_sketch.hpp"
#include "util/field.hpp"
#include "util/random.hpp"
#include "util/thread_pool.hpp"

namespace ccq {
namespace {

// --- Engine round throughput: delivery-mode scaling (the tentpole metric) --
//
// Two modes isolate the threading lever:
//   serial    threads=1
//   parallel  threads=0 (auto lanes, the default config)
// The grid runs n up to 4096 so the messages/sec column exposes cache-
// footprint cliffs (the packed arena crosses the LLC between n=2048 and
// n=4096, where cache-blocked delivery takes over).

struct EngineMode {
  const char* name;
  std::uint32_t threads;
};

inline constexpr EngineMode kEngineModes[] = {
    {"serial", 1},
    {"parallel", 0},
};

struct EngineBenchRow {
  std::uint32_t n;
  const char* mode;
  double rounds_per_sec;
  double messages_per_sec;
};

EngineBenchRow measure_engine_round(std::uint32_t n, const EngineMode& mode) {
  CliqueEngine engine{{.n = n, .threads = mode.threads}};
  const auto all_to_all = [n](VertexId u, Outbox& out) {
    for (VertexId v = 0; v < n; ++v)
      if (v != u) out.send(v, msg1(0, u));
  };
  engine.round_arena(all_to_all);  // warm-up: pool spawn + arena sizing
  using clock = std::chrono::steady_clock;
  const auto start = clock::now();
  std::uint64_t rounds = 0;
  double elapsed = 0;
  do {
    engine.round_arena(all_to_all);
    ++rounds;
    elapsed = std::chrono::duration<double>(clock::now() - start).count();
  } while (elapsed < 0.25);
  const double msgs = static_cast<double>(rounds) * n * (n - 1);
  return {n, mode.name, static_cast<double>(rounds) / elapsed,
          msgs / elapsed};
}

void engine_round_table() {
  const unsigned hw = ThreadPool::hardware_threads();
  std::vector<EngineBenchRow> rows;
  char buf[64];
  std::snprintf(buf, sizeof(buf),
                "Engine round throughput (all-to-all, hw threads: %u)", hw);
  bench::Table table{buf, {"n", "mode", "rounds/sec", "messages/sec",
                           "speedup"}};
  for (std::uint32_t n : {256u, 512u, 1024u, 2048u, 4096u}) {
    double serial_mps = 0;
    for (const EngineMode& mode : kEngineModes) {
      const auto row = measure_engine_round(n, mode);
      rows.push_back(row);
      if (serial_mps == 0) serial_mps = row.messages_per_sec;
      char rps[32], mps[32], speedup[32];
      std::snprintf(rps, sizeof(rps), "%.1f", row.rounds_per_sec);
      std::snprintf(mps, sizeof(mps), "%.3e", row.messages_per_sec);
      std::snprintf(speedup, sizeof(speedup), "%.2fx",
                    serial_mps > 0 ? row.messages_per_sec / serial_mps : 1.0);
      table.row({std::to_string(n), row.mode, rps, mps, speedup});
    }
  }
  table.print();
  std::ofstream json("BENCH_engine.json");
  json << "{\n  \"benchmark\": \"engine_round_all_to_all\",\n"
       << "  \"hardware_threads\": " << hw << ",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i)
    json << "    {\"n\": " << rows[i].n << ", \"mode\": \"" << rows[i].mode
         << "\", \"rounds_per_sec\": " << rows[i].rounds_per_sec
         << ", \"messages_per_sec\": " << rows[i].messages_per_sec << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
  json << "  ]\n}\n";
  std::printf("(table written to BENCH_engine.json)\n\n");
}

void BM_EngineRoundArena(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto threads = static_cast<std::uint32_t>(state.range(1));
  CliqueEngine engine{{.n = n, .threads = threads}};
  const auto all_to_all = [n](VertexId u, Outbox& out) {
    for (VertexId v = 0; v < n; ++v)
      if (v != u) out.send(v, msg1(0, u));
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.round_arena(all_to_all));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n *
                          (n - 1));
}
BENCHMARK(BM_EngineRoundArena)
    ->Args({512, 1})
    ->Args({1024, 1})
    ->Args({1024, 0});

void BM_EngineFusedWindow(benchmark::State& state) {
  // k fused static rounds vs k generic rounds of the same schedule: the
  // win is one arena pass (one counting sort, one placement) per window.
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto k = static_cast<std::uint32_t>(state.range(1));
  const bool fused = state.range(2) != 0;
  CliqueEngine engine{{.n = n, .threads = 1}};
  const auto schedule = [n](VertexId u, std::uint32_t r, Outbox& out) {
    for (VertexId v = 0; v < n; ++v)
      if (v != u) out.send(v, msg1(r, u));
  };
  for (auto _ : state) {
    if (fused) {
      benchmark::DoNotOptimize(engine.fused_rounds_arena(k, schedule));
    } else {
      for (std::uint32_t r = 0; r < k; ++r)
        benchmark::DoNotOptimize(engine.round_arena(
            [&](VertexId u, Outbox& out) { schedule(u, r, out); }));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n *
                          (n - 1) * k);
}
BENCHMARK(BM_EngineFusedWindow)
    ->Args({512, 4, 0})
    ->Args({512, 4, 1})
    ->Args({1024, 4, 0})
    ->Args({1024, 4, 1});

void BM_FieldMul(benchmark::State& state) {
  Rng rng{1};
  const auto a = field::canon(rng.next());
  auto b = field::canon(rng.next());
  for (auto _ : state) {
    b = field::mul(a, b);
    benchmark::DoNotOptimize(b);
  }
}
BENCHMARK(BM_FieldMul);

void BM_FieldPow(benchmark::State& state) {
  Rng rng{2};
  const auto base = field::canon(rng.next());
  std::uint64_t e = 12345678;
  for (auto _ : state) {
    benchmark::DoNotOptimize(field::pow(base, e));
    ++e;
  }
}
BENCHMARK(BM_FieldPow);

void BM_KwiseHashEval(benchmark::State& state) {
  Rng rng{3};
  const auto h = KwiseHash::random(static_cast<std::size_t>(state.range(0)),
                                   rng);
  std::uint64_t x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(h(x++));
  }
}
BENCHMARK(BM_KwiseHashEval)->Arg(2)->Arg(8)->Arg(16);

void BM_SketchUpdate(benchmark::State& state) {
  Rng rng{4};
  const std::uint32_t n = 1024;
  const auto words = rng.words(SketchSpace::seed_words_needed(n, 1));
  const SketchSpace space{n, 1, words};
  L0Sketch s{space.family(0)};
  std::uint64_t i = 0;
  const std::uint64_t universe = static_cast<std::uint64_t>(n) * n;
  for (auto _ : state) {
    s.update((i * 2654435761u + 1) % universe, (i & 1) ? 1 : -1);
    ++i;
  }
}
BENCHMARK(BM_SketchUpdate);

void BM_SketchAddAndSample(benchmark::State& state) {
  Rng rng{5};
  const std::uint32_t n = 1024;
  const auto words = rng.words(SketchSpace::seed_words_needed(n, 1));
  const SketchSpace space{n, 1, words};
  L0Sketch a{space.family(0)};
  L0Sketch b{space.family(0)};
  for (int i = 0; i < 100; ++i) {
    a.update(rng.next_below(1024 * 1024), 1);
    b.update(rng.next_below(1024 * 1024), 1);
  }
  for (auto _ : state) {
    L0Sketch c = a;
    c += b;
    benchmark::DoNotOptimize(c.sample());
  }
}
BENCHMARK(BM_SketchAddAndSample);

void BM_UnionFind(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng{6};
  for (auto _ : state) {
    UnionFind uf{n};
    for (std::size_t i = 0; i + 1 < n; ++i)
      uf.unite(rng.next_below(n), rng.next_below(n));
    benchmark::DoNotOptimize(uf.num_components());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_UnionFind)->Arg(1 << 10)->Arg(1 << 14);

void BM_EdgeColoring(benchmark::State& state) {
  Rng rng{7};
  const std::uint32_t n = 64;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (int i = 0; i < state.range(0); ++i)
    edges.emplace_back(rng.next_below(n), rng.next_below(n));
  for (auto _ : state) {
    benchmark::DoNotOptimize(bipartite_edge_coloring(edges, n, n));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_EdgeColoring)->Arg(1000)->Arg(10000);

void BM_RoutePackets(benchmark::State& state) {
  const std::uint32_t n = 64;
  std::vector<Packet> packets;
  Rng rng{9};
  for (int i = 0; i < state.range(0); ++i)
    packets.push_back({static_cast<VertexId>(rng.next_below(n)),
                       static_cast<VertexId>(rng.next_below(n)),
                       msg1(0, static_cast<std::uint64_t>(i))});
  RoundBuffer out;
  for (auto _ : state) {
    CliqueEngine engine{{.n = n}};
    route_packets_into(engine, packets, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_RoutePackets)->Arg(1000)->Arg(10000);

// The sparse collect-sketches shape: every vertex ships k packets to
// coordinator 0, sender by sender. Load k*(n-1) on one receiver forces
// about k waves of ~1k messages each, so this tracks the fixed per-round
// cost of the relay schedule rather than all-to-all throughput. k = 1456
// is the engine-mode census at n = 1024 (every sender's sketches make
// 1,456 packets): 1,455 waves of 65 distinct shapes.
void BM_RouteCoordinatorStar(benchmark::State& state) {
  const std::uint32_t n = 1024;
  const auto k = static_cast<std::uint64_t>(state.range(0));
  std::vector<Packet> packets;
  packets.reserve(k * (n - 1));
  for (VertexId v = 1; v < n; ++v)
    for (std::uint64_t i = 0; i < k; ++i)
      packets.push_back({v, 0, msg1(0, i)});
  RoundBuffer out;
  for (auto _ : state) {
    CliqueEngine engine{{.n = n}};
    route_packets_into(engine, packets, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(packets.size()));
}
BENCHMARK(BM_RouteCoordinatorStar)->Arg(1)->Arg(16)->Arg(1456);

void BM_DistributedSort(benchmark::State& state) {
  const std::uint32_t n = 32;
  Rng gen{10};
  std::vector<std::vector<std::uint64_t>> keys(n);
  for (int i = 0; i < state.range(0); ++i)
    keys[static_cast<std::size_t>(i) % n].push_back(gen.next());
  for (auto _ : state) {
    CliqueEngine engine{{.n = n}};
    Rng rng{11};
    benchmark::DoNotOptimize(distributed_sort_ranks(engine, keys, rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_DistributedSort)->Arg(1000)->Arg(8000);

void BM_KruskalClique(benchmark::State& state) {
  Rng rng{8};
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto g = random_weighted_clique(n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kruskal_msf(g));
  }
}
BENCHMARK(BM_KruskalClique)->Arg(64)->Arg(256);

}  // namespace

/// Exposed to main() below (anonymous-namespace internals stay internal).
void run_engine_round_table() { engine_round_table(); }

}  // namespace ccq

int main(int argc, char** argv) {
  ccq::bench::init(argc, argv, "bench_micro");
  ccq::run_engine_round_table();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
