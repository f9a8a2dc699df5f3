// perfbench: the repo benchmark harness.
//
// Runs one workload for a fixed wall-clock budget and prints one JSON
// object (last line of stdout) with the end-to-end metrics, the per-layer
// metrics of a traced pass, the exact model counters, the correctness
// verdict and a machine/build fingerprint. perfbench/run.py builds this
// program, calls it, and turns that object into the benchmark's result
// line; perfbench/README.md defines every metric.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1 [--spans FILE]
//
// Workloads (README.md, "Workloads"): recompute-engine, ingest-local,
// serve-mixed, paper-gc-mst. The seed is the only source of inputs; the
// library receives generated edge lists and nothing else.
//
// Service and engine thread counts are min(2, nproc), fixed in main, except
// that recompute-engine and serve-mixed run one service thread; every count
// is recorded in the fingerprint.
//
// The benchmark drives the library through its public calls only and
// times each layer by wrapping those calls. With --trace 1 it runs an
// untraced pass and a traced pass of half the budget each: the traced pass
// keeps benchmark spans in memory (one per wrapped call, with parent
// links), attaches the engine's existing Trace sink to read per-scope wall
// time, and writes spans, per-layer self time and the tracing overhead to
// --spans at exit.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "clique/engine.hpp"
#include "clique/trace.hpp"
#include "comm/routing.hpp"
#include "core/exact_mst.hpp"
#include "core/gc.hpp"
#include "graph/generators.hpp"
#include "graph/union_find.hpp"
#include "graph/verify.hpp"
#include "lotker/cc_mst.hpp"
#include "service/connectivity_service.hpp"
#include "service/edge_stream.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics_registry.hpp"
#include "util/random.hpp"

namespace {

using namespace ccq;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double ns_to_ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------- stats

/// Nearest-rank quantile (q in [0,1]) of an unsorted sample; 0 if empty.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

struct Series {
  std::vector<double> v;
  void add(double x) { v.push_back(x); }
  double median() const { return quantile(v, 0.5); }
  double sum() const {
    double s = 0;
    for (double x : v) s += x;
    return s;
  }
  std::size_t count() const { return v.size(); }
};

// ---------------------------------------------------------------- spans

/// Benchmark-side spans: one per wrapped public call, kept in memory and
/// written at exit. Engine trace scopes opened during a span are attached
/// to it as child nodes (they carry a duration but no start time).
struct SpanNode {
  std::string name;
  std::int64_t parent{-1};
  std::uint64_t start_ns{0};  // 0 for attached trace scopes
  std::uint64_t dur_ns{0};
  std::uint32_t thread{0};
  bool from_trace{false};
};

class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled), t0_(now_ns()) {}
  bool enabled() const { return enabled_; }

  std::int64_t open(const char* name, std::uint32_t thread = 0) {
    if (!enabled_) return -1;
    std::lock_guard lock{mu_};
    auto& stack = stacks_[thread];
    SpanNode s;
    s.name = name;
    s.parent = stack.empty() ? -1 : stack.back();
    s.start_ns = now_ns() - t0_;
    s.thread = thread;
    nodes_.push_back(std::move(s));
    stack.push_back(static_cast<std::int64_t>(nodes_.size() - 1));
    return stack.back();
  }
  void close(std::int64_t id, std::uint32_t thread = 0) {
    if (id < 0) return;
    const std::uint64_t t = now_ns() - t0_;
    std::lock_guard lock{mu_};
    nodes_[static_cast<std::size_t>(id)].dur_ns =
        t - nodes_[static_cast<std::size_t>(id)].start_ns;
    stacks_[thread].pop_back();
  }
  /// Record a span that already happened (thread-safe, no stack).
  void add_closed(const char* name, std::uint64_t start, std::uint64_t end,
                  std::uint32_t thread) {
    if (!enabled_) return;
    std::lock_guard lock{mu_};
    SpanNode s;
    s.name = name;
    s.start_ns = start - t0_;
    s.dur_ns = end - start;
    s.thread = thread;
    nodes_.push_back(std::move(s));
  }
  /// Attach trace events [from, end) as children of span `id`, nested by
  /// their recorded depth.
  void attach_trace(std::int64_t id, const Trace& trace, std::size_t from) {
    if (id < 0) return;
    std::lock_guard lock{mu_};
    const auto& ev = trace.events();
    std::vector<std::int64_t> by_depth;
    for (std::size_t i = from; i < ev.size(); ++i) {
      const TraceEvent& e = ev[i];
      // Depth is global to the trace; re-base on the first attached event.
      const std::size_t d = e.depth - ev[from].depth;
      by_depth.resize(d);
      SpanNode s;
      s.name = "trace:" + normalize(e.path);
      s.parent = d == 0 ? id : by_depth[d - 1];
      s.dur_ns = e.wall_ns;
      s.from_trace = true;
      nodes_.push_back(std::move(s));
      by_depth.push_back(static_cast<std::int64_t>(nodes_.size() - 1));
    }
  }
  const std::vector<SpanNode>& nodes() const { return nodes_; }
  std::size_t count() const { return nodes_.size(); }

  /// Collapse per-call indices ("ingest-batch-17", "recompute-3") so
  /// aggregates group by scope kind; algorithm phases keep their index.
  static std::string normalize(const std::string& path) {
    std::string out;
    std::size_t pos = 0;
    while (pos <= path.size()) {
      const std::size_t slash = std::min(path.find('/', pos), path.size());
      std::string seg = path.substr(pos, slash - pos);
      for (const char* kind : {"ingest-batch-", "recompute-"}) {
        const std::string k = kind;
        if (seg.rfind(k, 0) == 0) seg = k + "*";
      }
      if (!out.empty()) out += '/';
      out += seg;
      pos = slash + 1;
    }
    return out;
  }

 private:
  bool enabled_;
  std::uint64_t t0_;
  std::mutex mu_;
  std::vector<SpanNode> nodes_;
  std::map<std::uint32_t, std::vector<std::int64_t>> stacks_;
};

class SpanScope {
 public:
  SpanScope(Spans& spans, const char* name, std::uint32_t thread = 0)
      : spans_(spans), thread_(thread), id_(spans.open(name, thread)) {}
  ~SpanScope() { spans_.close(id_, thread_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  std::int64_t id() const { return id_; }

 private:
  Spans& spans_;
  std::uint32_t thread_;
  std::int64_t id_;
};

// ---------------------------------------------------------------- trace reads

/// Total wall ms and counter delta of trace events whose path ends in
/// `suffix`.
struct ScopeSum {
  double ms{0};
  Metrics delta{};
};

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

ScopeSum scope_sum(const Trace& trace, std::size_t from,
                   const std::string& suffix) {
  ScopeSum out;
  const auto& ev = trace.events();
  for (std::size_t i = from; i < ev.size(); ++i) {
    const std::string p = Spans::normalize(ev[i].path);
    if (!ends_with(p, suffix)) continue;
    out.ms += ns_to_ms(ev[i].wall_ns);
    const Metrics d = ev[i].delta();
    out.delta.rounds += d.rounds;
    out.delta.messages += d.messages;
    out.delta.words += d.words;
  }
  return out;
}

/// Wall ms of the trace events whose last path segment starts with
/// `prefix` (e.g. every "phase-k" of the Lotker phases).
double segment_ms(const Trace& trace, const std::string& prefix) {
  double ms = 0;
  for (const TraceEvent& e : trace.events()) {
    const auto slash = e.path.rfind('/');
    const std::string last =
        slash == std::string::npos ? e.path : e.path.substr(slash + 1);
    if (last.rfind(prefix, 0) == 0) ms += ns_to_ms(e.wall_ns);
  }
  return ms;
}

// ---------------------------------------------------------------- result

struct Result {
  Series setup_s;
  Series fast_ms;  // the workload's frequent operation
  Series slow_ms;  // the workload's expensive operation
  std::map<std::string, std::pair<double, std::string>> detail;
  std::map<std::string, double> layers;
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::uint32_t> threads;
  // Sample counts behind fast_ms/slow_ms when they hold one percentile of
  // a larger sample (0: the series itself is the sample).
  std::size_t fast_samples{0};
  std::size_t slow_samples{0};
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<std::string> failures;
  std::vector<std::string> invalid;

  void fail(const std::string& why) {
    ++failed;
    if (failures.size() < 16) failures.push_back(why);
  }
  void check(bool ok, const std::string& why) {
    ++attempted;
    if (!ok) fail(why);
  }
};

struct Pass {
  double budget_s{1};
  std::uint64_t seed{0};
  std::uint32_t threads{1};  // service / engine threads
  std::uint32_t nproc{1};
  Spans* spans{nullptr};
  bool traced() const { return spans != nullptr && spans->enabled(); }
};

/// Canonical min-labels from a sequential union-find over `edges`.
std::vector<VertexId> oracle_labels(std::uint32_t n,
                                    const std::vector<Edge>& edges) {
  UnionFind uf{n};
  for (const Edge& e : edges) uf.unite(e.u, e.v);
  std::vector<VertexId> min_of(n, n);
  std::vector<VertexId> labels(n);
  for (VertexId v = 0; v < n; ++v) {
    const auto root = static_cast<VertexId>(uf.find(v));
    if (min_of[root] == n) min_of[root] = v;
    labels[v] = min_of[root];
  }
  return labels;
}

std::uint32_t count_labels(const std::vector<VertexId>& labels) {
  std::uint32_t c = 0;
  for (VertexId v = 0; v < labels.size(); ++v) c += labels[v] == v ? 1 : 0;
  return c;
}

std::uint64_t edge_key(VertexId u, VertexId v) {
  const VertexId lo = std::min(u, v);
  const VertexId hi = std::max(u, v);
  return (std::uint64_t{lo} << 32) | hi;
}

/// Compare the service's labels (fresh index) against the oracle over the
/// live edge set; every mismatch is a failed check.
void check_labels(Result& r, ConnectivityService& svc,
                  const std::vector<Edge>& live, std::uint32_t components,
                  const char* where) {
  const auto want = oracle_labels(svc.n(), live);
  const auto got = svc.component_labels();
  r.check(got == want, std::string(where) + ": labels differ from union-find");
  r.check(components == count_labels(want),
          std::string(where) + ": component count differs from union-find");
  r.check(svc.monte_carlo_ok(), std::string(where) + ": monte_carlo_ok false");
}

/// Random distinct edges inside `groups` vertex classes (v % groups) of
/// the first n - isolated vertices, count / groups edges per class, class
/// by class: the pool is one dense component per class (w.h.p. for the
/// densities used) plus `isolated` singleton vertices, so census answers
/// are non-trivial.
std::vector<Edge> grouped_pool(std::uint32_t n, std::uint32_t groups,
                               std::uint32_t isolated, std::size_t count,
                               std::uint64_t seed) {
  Rng rng{seed};
  const std::uint32_t per_class = (n - isolated) / groups;
  std::unordered_set<std::uint64_t> seen;
  std::vector<Edge> out;
  out.reserve(count);
  for (std::uint32_t g = 0; g < groups; ++g) {
    while (out.size() < (g + 1) * (count / groups)) {
      const auto u = static_cast<VertexId>(
          g + groups * rng.next_below(per_class));
      const auto v = static_cast<VertexId>(
          g + groups * rng.next_below(per_class));
      if (u == v || !seen.insert(edge_key(u, v)).second) continue;
      out.emplace_back(u, v);
    }
  }
  return out;
}

std::vector<EdgeUpdate> as_updates(std::span<const Edge> edges, EdgeOp op) {
  std::vector<EdgeUpdate> out;
  out.reserve(edges.size());
  for (const Edge& e : edges) out.push_back({e.u, e.v, op});
  return out;
}

/// Set-up shared by the local-mode workloads: generate an edge pool, boot a
/// local-mode service and insert the pool cold (the first sight of every
/// coordinate fills the signature cache, so the timed phase replays warm
/// signatures). Repeated `setups` times for set-up samples; the last
/// service is kept. The pool is cut into `batch`-sized chunks, each with a
/// delete batch and a reinsert batch. Each chunk is the whole edge set of
/// one vertex class, so deleting it isolates that class and a lost delete
/// shows in the census labels.
struct PoolService {
  std::vector<Edge> pool;
  std::vector<std::vector<EdgeUpdate>> del;
  std::vector<std::vector<EdgeUpdate>> ins;
  std::unique_ptr<ConnectivityService> svc;
  Series boot_ms;

  /// The live edge set when chunk k is present iff present[k].
  std::vector<Edge> live(const std::vector<char>& present) const {
    std::vector<Edge> out;
    const std::size_t batch = del.front().size();
    for (std::size_t k = 0; k < present.size(); ++k)
      if (present[k])
        out.insert(out.end(),
                   pool.begin() + static_cast<std::ptrdiff_t>(k * batch),
                   pool.begin() + static_cast<std::ptrdiff_t>((k + 1) * batch));
    return out;
  }
};

void setup_pool_service(PoolService& ps, Result& r, Spans& spans,
                        std::uint32_t n, std::size_t pool_size,
                        std::size_t batch, std::uint32_t threads,
                        std::uint64_t seed, int setups) {
  for (int rep = 0; rep < setups; ++rep) {
    SpanScope span{spans, "bench.setup"};
    const std::uint64_t s0 = now_ns();
    ps.pool = grouped_pool(n, static_cast<std::uint32_t>(pool_size / batch),
                           8, pool_size, seed);
    ServiceConfig cfg;
    cfg.n = n;
    cfg.seed = mix_seed(seed, 2);
    cfg.tuning.threads = threads;
    cfg.tuning.index_mode = IndexMode::kLocal;
    ps.svc.reset();
    {
      SpanScope b{spans, "service.boot"};
      const std::uint64_t b0 = now_ns();
      ps.svc = std::make_unique<ConnectivityService>(cfg);
      ps.boot_ms.add(ns_to_ms(now_ns() - b0));
    }
    for (std::size_t b = 0; b < pool_size; b += batch) {
      SpanScope a{spans, "service.apply_batch"};
      ps.svc->apply_batch(as_updates(
          std::span<const Edge>{ps.pool.data() + b, batch}, EdgeOp::kInsert));
    }
    r.setup_s.add(ns_to_ms(now_ns() - s0) / 1e3);
  }
  for (std::size_t b = 0; b < pool_size; b += batch) {
    const std::span<const Edge> chunk{ps.pool.data() + b, batch};
    ps.del.push_back(as_updates(chunk, EdgeOp::kDelete));
    ps.ins.push_back(as_updates(chunk, EdgeOp::kInsert));
  }
}

/// Paired ctx-vs-plain query timing on a fresh index: per-call overhead of
/// the RequestContext overload, ns (median over alternating blocks).
double request_overhead_ns(ConnectivityService& svc, std::uint64_t seed) {
  constexpr int kBlocks = 21;
  constexpr int kCalls = 2000;
  Rng rng{seed};
  std::vector<std::pair<VertexId, VertexId>> pairs(kCalls);
  for (auto& p : pairs)
    p = {static_cast<VertexId>(rng.next_below(svc.n())),
         static_cast<VertexId>(rng.next_below(svc.n()))};
  std::vector<double> diff;
  RequestContext ctx{99, 0, 0};
  for (int b = 0; b < kBlocks; ++b) {
    const std::uint64_t t0 = now_ns();
    for (const auto& [u, v] : pairs) (void)svc.connected(u, v);
    const std::uint64_t t1 = now_ns();
    for (const auto& [u, v] : pairs) {
      ctx.stream_seq++;
      (void)svc.connected(u, v, ctx);
    }
    const std::uint64_t t2 = now_ns();
    diff.push_back((static_cast<double>(t2 - t1) -
                    static_cast<double>(t1 - t0)) /
                   kCalls);
  }
  return quantile(diff, 0.5);
}

/// Time bipartite_edge_coloring on the (src, dst) multiset the engine-mode
/// recompute routes: every vertex v != 0 sends `per_vertex` packets to the
/// coordinator 0. route_packets_into colors it in waves of at most n
/// packets per receiver (consecutive in packet order for this shape), so
/// the benchmark colors the same waves, one call each.
double schedule_ms(std::uint32_t n, std::uint64_t per_vertex) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> all;
  all.reserve(static_cast<std::size_t>(per_vertex) * (n - 1));
  for (std::uint32_t v = 1; v < n; ++v)
    for (std::uint64_t k = 0; k < per_vertex; ++k) all.emplace_back(v, 0);
  std::uint64_t total = 0;
  for (std::size_t begin = 0; begin < all.size(); begin += n) {
    const std::size_t end = std::min(all.size(), begin + n);
    const std::vector<std::pair<std::uint32_t, std::uint32_t>> wave(
        all.begin() + static_cast<std::ptrdiff_t>(begin),
        all.begin() + static_cast<std::ptrdiff_t>(end));
    const std::uint64_t t0 = now_ns();
    (void)bipartite_edge_coloring(wave, n, n);
    total += now_ns() - t0;
  }
  return ns_to_ms(total);
}

/// Service-layer reads shared by the service workloads' traced passes.
void service_layers(Result& r, const Trace& trace,
                    const Series& recompute_calls, std::uint64_t queries,
                    std::uint64_t recomputes) {
  Series recompute_ms;
  for (const TraceEvent& e : trace.events())
    if (Spans::normalize(e.path) == "service/recompute-*")
      recompute_ms.add(ns_to_ms(e.wall_ns));
  r.layers["service.recompute_ms"] = recompute_ms.count()
                                         ? recompute_ms.median()
                                         : recompute_calls.median();
  r.layers["service.stale_query_frac"] =
      queries ? static_cast<double>(recomputes) / static_cast<double>(queries)
              : 0.0;
}

// ---------------------------------------------------------------- workloads

/// recompute-engine: the ROADMAP churn replay in engine index mode, then
/// the census query that rebuilds the stale index over the clique.
void run_recompute_engine(Result& r, const Pass& pass) {
  constexpr std::uint32_t kN = 1024;
  constexpr std::size_t kBatch = 1024;
  constexpr int kFirstSetups = 3;
  // One service thread: the routing this workload is about is serial host
  // work, and at two threads the cold apply_batch flipped between two
  // speeds from one set of runs to the next.
  constexpr std::uint32_t kThreads = 1;
  Spans& spans = *pass.spans;
  r.threads["service.tuning.threads"] = kThreads;
  const std::uint64_t t_begin = now_ns();
  Series apply_ms;
  Series boot_ms;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t updates = 0;
  double apply_total_ms = 0;
  Series route_ms, collect_ms, sched_ms, bcast_ms, recompute_wall_ms;
  std::uint64_t route_rounds = 0, route_packets = 0, recompute_rounds = 0;
  std::uint64_t queries = 0, recomputes = 0;
  double overhead_ns = 0;
  Metrics first_delta{};
  std::uint64_t boruvka_rounds = 0;
  double last_iter_s = 0;
  for (int iter = 0;; ++iter) {
    const double elapsed = ns_to_ms(now_ns() - t_begin) / 1e3;
    if (iter > 0 && elapsed + last_iter_s > pass.budget_s) break;
    const std::uint64_t it0 = now_ns();
    SpanScope iter_span{spans, "bench.iteration"};
    // --- set-up: input generation + service boot (repeated on the first
    // iteration so every run has several set-up samples).
    Trace trace;  // declared first: it must outlive the service using it
    EdgeStream stream;
    std::unique_ptr<ConnectivityService> svc;
    for (int rep = 0; rep < (iter == 0 ? kFirstSetups : 1); ++rep) {
      SpanScope setup{spans, "bench.setup"};
      const std::uint64_t s0 = now_ns();
      {
        SpanScope s{spans, "bench.generate_churn_stream"};
        stream = generate_churn_stream(kN, 8 * kN, 16 * kN, pass.seed);
      }
      ServiceConfig cfg;
      cfg.n = kN;
      cfg.seed = mix_seed(pass.seed, 1);
      cfg.tuning.threads = kThreads;
      cfg.tuning.index_mode = IndexMode::kEngine;
      svc.reset();
      {
        SpanScope s{spans, "service.boot"};
        const std::uint64_t b0 = now_ns();
        svc = std::make_unique<ConnectivityService>(cfg);
        boot_ms.add(ns_to_ms(now_ns() - b0));
      }
      r.setup_s.add(ns_to_ms(now_ns() - s0) / 1e3);
    }
    if (pass.traced()) svc->engine().set_trace(&trace);
    const Metrics m0 = svc->metrics();
    const ServiceStats st0 = svc->stats();
    // --- timed phase: replay, then the stale census.
    std::unordered_set<std::uint64_t> live;
    for (std::size_t b = 0; b < stream.updates.size(); b += kBatch) {
      const std::size_t end = std::min(stream.updates.size(), b + kBatch);
      const std::span<const EdgeUpdate> batch{stream.updates.data() + b,
                                              end - b};
      BatchStats bs;
      const std::size_t ev0 = trace.events().size();
      {
        SpanScope s{spans, "service.apply_batch"};
        const std::uint64_t t0 = now_ns();
        try {
          bs = svc->apply_batch(batch);
        } catch (const std::exception& e) {
          r.fail(std::string("apply_batch threw: ") + e.what());
        }
        const double ms = ns_to_ms(now_ns() - t0);
        apply_ms.add(ms);
        r.fast_ms.add(ms);
        apply_total_ms += ms;
        spans.attach_trace(s.id(), trace, ev0);
      }
      ++r.attempted;
      hits += bs.sig_hits;
      misses += bs.sig_misses;
      updates += batch.size();
      for (const EdgeUpdate& u : batch) {
        if (u.op == EdgeOp::kInsert)
          live.insert(edge_key(u.u, u.v));
        else
          live.erase(edge_key(u.u, u.v));
      }
    }
    std::uint32_t comps = 0;
    const std::size_t ev0 = trace.events().size();
    {
      SpanScope s{spans, "service.num_components"};
      const std::uint64_t t0 = now_ns();
      comps = svc->num_components();
      const double ms = ns_to_ms(now_ns() - t0);
      r.slow_ms.add(ms);
      spans.attach_trace(s.id(), trace, ev0);
    }
    ++r.attempted;
    const Metrics m1 = svc->metrics();
    const ServiceStats st1 = svc->stats();
    const Metrics delta = m1 - m0;
    if (iter == 0) {
      first_delta = delta;
      boruvka_rounds = st1.boruvka_rounds - st0.boruvka_rounds;
    } else {
      r.check(delta.rounds == first_delta.rounds &&
                  delta.messages == first_delta.messages &&
                  delta.words == first_delta.words,
              "model counters differ between identical replays");
    }
    queries += st1.queries - st0.queries;
    recomputes += st1.recomputes - st0.recomputes;
    {
      SpanScope s{spans, "bench.oracle"};
      std::vector<Edge> edges;
      edges.reserve(live.size());
      for (std::uint64_t k : live)
        edges.emplace_back(static_cast<VertexId>(k >> 32),
                           static_cast<VertexId>(k & 0xffffffffu));
      check_labels(r, *svc, edges, comps, "recompute-engine census");
    }
    if (pass.traced()) {
      const ScopeSum route =
          scope_sum(trace, ev0, "collect-sketches/comm/route");
      const ScopeSum collect = scope_sum(trace, ev0, "collect-sketches");
      const ScopeSum bcast = scope_sum(trace, ev0, "broadcast-forest");
      const ScopeSum rec = scope_sum(trace, ev0, "service/recompute-*");
      route_ms.add(route.ms);
      collect_ms.add(collect.ms);
      bcast_ms.add(bcast.ms);
      recompute_wall_ms.add(rec.ms);
      route_rounds = route.delta.rounds;
      route_packets = route.delta.messages / 2;  // two hops per packet
      recompute_rounds = rec.delta.rounds;
      if (route_packets % (kN - 1) != 0)
        r.fail("routed packet count is not uniform across vertices");
      {
        SpanScope s{spans, "probe.bipartite_edge_coloring"};
        sched_ms.add(schedule_ms(kN, route_packets / (kN - 1)));
      }
      SpanScope s{spans, "probe.request_overhead"};
      overhead_ns = request_overhead_ns(*svc, mix_seed(pass.seed, 9));
      svc->engine().set_trace(nullptr);
    }
    last_iter_s = ns_to_ms(now_ns() - it0) / 1e3;
  }
  r.counters["model_rounds"] = first_delta.rounds;
  r.counters["model_messages"] = first_delta.messages;
  r.counters["model_words"] = first_delta.words;
  r.counters["sketch.boruvka_rounds"] = boruvka_rounds;
  r.detail["fresh_query_ms"] = {r.slow_ms.median(), "ms"};
  r.detail["ingest_updates_per_s"] = {
      static_cast<double>(updates) / (apply_total_ms / 1e3), "1/s"};
  r.detail["model_rounds"] = {static_cast<double>(first_delta.rounds),
                              "count"};
  r.detail["model_messages"] = {static_cast<double>(first_delta.messages),
                                "count"};
  r.detail["model_words"] = {static_cast<double>(first_delta.words), "count"};
  r.layers["service.boot_ms"] = boot_ms.median();
  r.layers["service.apply_batch_ms"] = apply_ms.median();
  r.layers["service.sig_hit_ratio"] =
      hits + misses ? static_cast<double>(hits) /
                          static_cast<double>(hits + misses)
                    : 0.0;
  r.layers["service.query_call_us_p99"] = quantile(r.slow_ms.v, 0.99) * 1e3;
  r.layers["service.recompute_ms"] =
      recompute_wall_ms.count() ? recompute_wall_ms.median()
                                : r.slow_ms.median();
  r.layers["service.stale_query_frac"] =
      queries ? static_cast<double>(recomputes) / static_cast<double>(queries)
              : 0.0;
  r.layers["comm.route_ms"] = route_ms.median();
  r.layers["comm.schedule_ms"] = sched_ms.median();
  r.layers["comm.deliver_ms"] = route_ms.median() - sched_ms.median();
  r.layers["comm.route_rounds"] = static_cast<double>(route_rounds);
  r.layers["comm.color_batches"] =
      route_rounds >= kScheduleRounds
          ? static_cast<double>((route_rounds - kScheduleRounds) / 2)
          : 0.0;
  r.layers["comm.packets"] = static_cast<double>(route_packets);
  r.layers["clique.round_us"] =
      recompute_rounds
          ? (route_ms.median() + bcast_ms.median()) * 1e3 /
                static_cast<double>(recompute_rounds)
          : 0.0;
  r.layers["sketch.boruvka_ms"] = recompute_wall_ms.count()
                                      ? recompute_wall_ms.median() -
                                            collect_ms.median() -
                                            bcast_ms.median()
                                      : 0.0;
  r.layers["telemetry.request_overhead_ns"] = overhead_ns;
}

/// ingest-local: warm churn — a fixed pool of distinct edges is deleted and
/// reinserted in separate 4096-update batches (nothing nets out), with a
/// census query every kCensusEvery batches. Local index mode.
void run_ingest_local(Result& r, const Pass& pass) {
  constexpr std::uint32_t kN = 512;
  constexpr std::size_t kBatch = 4096;
  constexpr std::size_t kPool = 2 * kBatch;
  // Census after batches 4, 10, 16, ...: always right after a delete, with
  // the deleted chunk alternating (kCensusEvery = 2 mod 4, two chunks), so
  // every census checks a state with edges deleted.
  constexpr std::size_t kCensusEvery = 6;
  constexpr int kSetups = 3;
  Spans& spans = *pass.spans;
  r.threads["service.tuning.threads"] = pass.threads;
  Trace trace;  // declared first: it must outlive the service using it
  PoolService ps;
  setup_pool_service(ps, r, spans, kN, kPool, kBatch, pass.threads,
                     pass.seed, kSetups);
  ConnectivityService* svc = ps.svc.get();
  const std::size_t chunks = ps.del.size();
  std::vector<char> present(chunks, 1);
  if (pass.traced()) svc->engine().set_trace(&trace);
  const ServiceStats st0 = svc->stats();
  std::uint64_t hits = 0, misses = 0, updates = 0;
  double apply_total_ms = 0;
  Series apply_ms;
  std::uint64_t first_census_boruvka = 0;
  const std::uint64_t t_begin = now_ns();
  std::size_t step = 0;
  int census = 0;
  while (step < 2 * chunks * kCensusEvery ||
         ns_to_ms(now_ns() - t_begin) / 1e3 < pass.budget_s) {
    const std::size_t c = (step / 2) % chunks;
    const bool is_delete = step % 2 == 0;
    const auto& batch = is_delete ? ps.del[c] : ps.ins[c];
    BatchStats bs;
    {
      SpanScope s{spans, "service.apply_batch"};
      const std::size_t ev0 = trace.events().size();
      const std::uint64_t t0 = now_ns();
      try {
        bs = svc->apply_batch(batch);
      } catch (const std::exception& e) {
        r.fail(std::string("apply_batch threw: ") + e.what());
      }
      const double ms = ns_to_ms(now_ns() - t0);
      apply_ms.add(ms);
      r.fast_ms.add(ms);
      apply_total_ms += ms;
      spans.attach_trace(s.id(), trace, ev0);
    }
    ++r.attempted;
    hits += bs.sig_hits;
    misses += bs.sig_misses;
    updates += batch.size();
    present[c] = is_delete ? 0 : 1;
    ++step;
    if (step % kCensusEvery != kCensusEvery - 1) continue;
    const ServiceStats before = svc->stats();
    std::uint32_t comps = 0;
    {
      SpanScope s{spans, "service.num_components"};
      const std::size_t ev0 = trace.events().size();
      const std::uint64_t t0 = now_ns();
      comps = svc->num_components();
      r.slow_ms.add(ns_to_ms(now_ns() - t0));
      spans.attach_trace(s.id(), trace, ev0);
    }
    ++r.attempted;
    const ServiceStats after = svc->stats();
    if (census++ == 0)
      first_census_boruvka = after.boruvka_rounds - before.boruvka_rounds;
    SpanScope o{spans, "bench.oracle"};
    check_labels(r, *svc, ps.live(present), comps, "ingest-local census");
  }
  const ServiceStats st1 = svc->stats();
  service_layers(r, trace, r.slow_ms, st1.queries - st0.queries,
                 st1.recomputes - st0.recomputes);
  if (pass.traced()) {
    svc->engine().set_trace(nullptr);
    // The recompute has no engine work in local mode: all of it is the
    // coordinator-local sketch Borůvka.
    r.layers["sketch.boruvka_ms"] = r.layers["service.recompute_ms"];
    SpanScope s{spans, "probe.request_overhead"};
    r.layers["telemetry.request_overhead_ns"] =
        request_overhead_ns(*svc, mix_seed(pass.seed, 9));
  }
  r.counters["sketch.boruvka_rounds"] = first_census_boruvka;
  r.detail["fresh_query_ms"] = {r.slow_ms.median(), "ms"};
  r.detail["ingest_updates_per_s"] = {
      static_cast<double>(updates) / (apply_total_ms / 1e3), "1/s"};
  r.layers["service.boot_ms"] = ps.boot_ms.median();
  r.layers["service.apply_batch_ms"] = apply_ms.median();
  r.layers["service.sig_hit_ratio"] =
      hits + misses ? static_cast<double>(hits) /
                          static_cast<double>(hits + misses)
                    : 0.0;
  r.layers["service.query_call_us_p99"] = quantile(r.slow_ms.v, 0.99) * 1e3;
}

/// serve-mixed: open-loop serving in local index mode. Reader threads send
/// connected / component_of / num_components at a fixed total rate; one
/// writer applies delete/reinsert batches at a fixed rate. Latency is
/// measured from each request's due time.
void run_serve_mixed(Result& r, const Pass& pass) {
  constexpr std::uint32_t kN = 512;
  constexpr std::size_t kBatch = 512;
  constexpr std::size_t kPool = 8 * kBatch;
  constexpr double kQueryRate = 40000.0;  // total, queries/s
  constexpr double kWriteRate = 5.0;      // batches/s
  constexpr double kSloMs = 1.0;
  constexpr std::size_t kWindows = 5;
  constexpr int kSetups = 3;
  // One service thread: the stale-query recompute runs beside two readers
  // and the writer, and with two lanes its p99 spread from run to run
  // (12-17 ms on one seed) where one lane held 12 ms.
  constexpr std::uint32_t kServiceThreads = 1;
  const std::uint32_t readers = std::min<std::uint32_t>(2, pass.nproc);
  Spans& spans = *pass.spans;
  r.threads["service.tuning.threads"] = kServiceThreads;
  r.threads["reader_threads"] = readers;
  r.threads["writer_threads"] = 1;
  Trace trace;  // declared first: it must outlive the service using it
  PoolService ps;
  setup_pool_service(ps, r, spans, kN, kPool, kBatch, kServiceThreads,
                     pass.seed, kSetups);
  ConnectivityService* svc = ps.svc.get();
  const std::size_t chunks = ps.del.size();
  std::vector<char> present(chunks, 1);
  // The trace is only driven under the service's writer lock (apply_batch
  // and stale-index recomputes), so it is safe with concurrent readers.
  if (pass.traced()) svc->engine().set_trace(&trace);
  const ServiceStats st0 = svc->stats();

  struct ReaderLog {
    // Sized up front so the logs' own allocation is identical on every
    // run and does not blur peak_rss_mb.
    std::vector<double> from_due_ms;
    std::vector<double> call_us;
    std::vector<double> lag_ms;
    void reserve(std::size_t n) {
      from_due_ms.reserve(n);
      call_us.reserve(n);
      lag_ms.reserve(n);
    }
    std::uint64_t attempted{0};
    std::uint64_t failed{0};
    std::uint64_t slo_miss{0};
    std::string first_error;
  };
  std::vector<ReaderLog> logs(readers);
  for (ReaderLog& log : logs)
    log.reserve(static_cast<std::size_t>(kQueryRate / readers *
                                         pass.budget_s) + 16);
  struct WriterLog {
    std::vector<double> apply_ms;
    std::vector<double> lag_ms;
    std::uint64_t updates{0};
    std::uint64_t attempted{0};
    std::uint64_t failed{0};
    std::uint64_t hits{0};
    std::uint64_t misses{0};
    std::string first_error;
  } wlog;

  const std::uint64_t start = now_ns() + 2'000'000;  // 2 ms to spin up
  const auto budget_ns = static_cast<std::uint64_t>(pass.budget_s * 1e9);
  const std::uint64_t stop = start + budget_ns;
  const auto wait_until = [](std::uint64_t due) {
    for (;;) {
      const std::uint64_t t = now_ns();
      if (t >= due) return;
      if (due - t > 300'000)
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(due - t - 200'000));
      else
        std::this_thread::yield();
    }
  };

  std::int64_t phase_span = spans.open("bench.timed_phase");
  std::vector<std::thread> threads;
  for (std::uint32_t rd = 0; rd < readers; ++rd) {
    threads.emplace_back([&, rd] {
      ReaderLog& log = logs[rd];
      Rng rng{mix_seed(pass.seed, 100 + rd)};
      const double interval_ns = 1e9 * readers / kQueryRate;
      RequestContext ctx{rd + 1, 0, 0};
      std::uint64_t prev_end = 0;
      for (std::uint64_t i = 0;; ++i) {
        const auto due = start + static_cast<std::uint64_t>(
                                     (static_cast<double>(i) +
                                      static_cast<double>(rd) / readers) *
                                     interval_ns);
        if (due >= stop) break;
        wait_until(due);
        const auto u = static_cast<VertexId>(rng.next_below(kN));
        const auto v = static_cast<VertexId>(rng.next_below(kN));
        ctx.stream_seq = i;
        const std::uint64_t t0 = now_ns();
        bool ok = true;
        try {
          switch (i % 3) {
            case 0:
              (void)svc->connected(u, v, ctx);
              break;
            case 1:
              ok = svc->component_of(u, ctx) <= u;
              break;
            default: {
              const std::uint32_t c = svc->num_components(ctx);
              ok = c >= 1 && c <= kN;
            }
          }
        } catch (const std::exception& e) {
          ok = false;
          if (log.first_error.empty()) log.first_error = e.what();
        }
        const std::uint64_t t1 = now_ns();
        ++log.attempted;
        const double from_due = ns_to_ms(t1 - due);
        log.from_due_ms.push_back(from_due);
        log.call_us.push_back(static_cast<double>(t1 - t0) / 1e3);
        log.lag_ms.push_back(ns_to_ms(t0 - std::max(due, prev_end)));
        if (!ok) {
          ++log.failed;
          if (log.first_error.empty()) log.first_error = "bad query answer";
        }
        if (!ok || from_due > kSloMs) ++log.slo_miss;
        if (spans.enabled() && t1 - t0 > 100'000)
          spans.add_closed("service.query", t0, t1, rd + 1);
        prev_end = t1;
      }
    });
  }
  threads.emplace_back([&] {
    RequestContext ctx{0, 0, 0};
    for (std::uint64_t j = 0;; ++j) {
      const auto due = start + static_cast<std::uint64_t>(
                                   (static_cast<double>(j) + 0.5) * 1e9 /
                                   kWriteRate);
      // End on a delete batch (even j), one batch past the timed phase if
      // need be, so the final check sees a state with edges deleted.
      if (due >= stop && j % 2 == 1) break;
      wait_until(due);
      const std::size_t c = (j / 2) % chunks;
      const bool is_delete = j % 2 == 0;
      const auto& batch = is_delete ? ps.del[c] : ps.ins[c];
      ctx.stream_seq = j;
      const std::uint64_t t0 = now_ns();
      try {
        const BatchStats bs = svc->apply_batch(batch, ctx);
        wlog.hits += bs.sig_hits;
        wlog.misses += bs.sig_misses;
      } catch (const std::exception& e) {
        ++wlog.failed;
        if (wlog.first_error.empty()) wlog.first_error = e.what();
      }
      const std::uint64_t t1 = now_ns();
      spans.add_closed("service.apply_batch", t0, t1, 0);
      ++wlog.attempted;
      wlog.updates += batch.size();
      wlog.apply_ms.push_back(ns_to_ms(t1 - t0));
      wlog.lag_ms.push_back(ns_to_ms(t0 - due));
      present[c] = is_delete ? 0 : 1;
    }
  });
  for (auto& t : threads) t.join();
  spans.close(phase_span);
  // Recomputes and ingest batches ran under the writer lock on whichever
  // thread took it; their engine trace scopes hang off the phase span.
  spans.attach_trace(phase_span, trace, 0);

  // Latency percentiles per window of due time; the reported p50/p99 are
  // the medians over windows, so one burst of host noise moves one window.
  std::vector<std::vector<double>> window(kWindows);
  std::vector<double> from_due, call_us, lag;
  std::uint64_t slo_miss = 0;
  for (std::uint32_t rd = 0; rd < readers; ++rd) {
    const ReaderLog& log = logs[rd];
    for (std::size_t i = 0; i < log.from_due_ms.size(); ++i) {
      const double due_s = (static_cast<double>(i) +
                            static_cast<double>(rd) / readers) *
                           readers / kQueryRate;
      const auto w = std::min<std::size_t>(
          kWindows - 1,
          static_cast<std::size_t>(due_s / pass.budget_s * kWindows));
      window[w].push_back(log.from_due_ms[i]);
    }
    from_due.insert(from_due.end(), log.from_due_ms.begin(),
                    log.from_due_ms.end());
    call_us.insert(call_us.end(), log.call_us.begin(), log.call_us.end());
    lag.insert(lag.end(), log.lag_ms.begin(), log.lag_ms.end());
    r.attempted += log.attempted;
    slo_miss += log.slo_miss;
    for (std::uint64_t f = 0; f < log.failed; ++f)
      r.fail("query failed: " + log.first_error);
  }
  r.attempted += wlog.attempted;
  for (std::uint64_t f = 0; f < wlog.failed; ++f)
    r.fail("apply_batch failed: " + wlog.first_error);
  const double p50 = quantile(from_due, 0.5);
  const double p99 = quantile(from_due, 0.99);
  for (const auto& w : window) {
    r.fast_ms.add(quantile(w, 0.5));
    r.slow_ms.add(quantile(w, 0.99));
  }
  r.fast_samples = r.slow_samples = from_due.size();
  const double queries = static_cast<double>(from_due.size());
  const double lag_p99 = quantile(lag, 0.99);
  const double wlag_p99 = quantile(wlog.lag_ms, 0.99);
  r.detail["query_p50_us"] = {p50 * 1e3, "us"};
  r.detail["query_p99_us"] = {p99 * 1e3, "us"};
  r.detail["query_samples"] = {queries, "count"};
  r.detail["slo_miss_frac"] = {
      queries ? static_cast<double>(slo_miss) / queries : 0.0, "ratio"};
  r.detail["offered_queries_per_s"] = {kQueryRate, "1/s"};
  r.detail["ingest_updates_per_s"] = {
      static_cast<double>(wlog.updates) /
          (std::max(1e-9, Series{wlog.apply_ms}.sum()) / 1e3),
      "1/s"};
  r.detail["bench.reader_lag_p99_ms"] = {lag_p99, "ms"};
  r.detail["bench.writer_lag_p99_ms"] = {wlag_p99, "ms"};
  // Open-loop health: a generator that ran late by its own fault (not
  // because the previous call was still blocked in the service) inflates
  // latency from due time without the service being slow.
  if (lag_p99 > 0.5 * p99)
    r.invalid.push_back("reader generator lag explains the p99 latency");
  if (wlag_p99 > 0.5 * 1e3 / kWriteRate)
    r.invalid.push_back("writer generator ran more than half a period late");

  // Final state vs the oracle (no write in flight any more).
  const ServiceStats st1 = svc->stats();
  const std::uint32_t comps = svc->num_components();
  check_labels(r, *svc, ps.live(present), comps, "serve-mixed final state");
  service_layers(r, trace, r.slow_ms, st1.queries - st0.queries,
                 st1.recomputes - st0.recomputes);
  if (pass.traced()) {
    svc->engine().set_trace(nullptr);
    r.layers["sketch.boruvka_ms"] = r.layers["service.recompute_ms"];
    SpanScope s{spans, "probe.request_overhead"};
    r.layers["telemetry.request_overhead_ns"] =
        request_overhead_ns(*svc, mix_seed(pass.seed, 9));
  }
  r.layers["service.boot_ms"] = ps.boot_ms.median();
  r.layers["service.apply_batch_ms"] = quantile(wlog.apply_ms, 0.5);
  r.layers["service.sig_hit_ratio"] =
      wlog.hits + wlog.misses
          ? static_cast<double>(wlog.hits) /
                static_cast<double>(wlog.hits + wlog.misses)
          : 0.0;
  r.layers["service.query_call_us_p99"] = quantile(call_us, 0.99);
  r.layers["bench.generator_lag_ms"] = std::max(lag_p99, wlag_p99);
  // Which states get recomputed races with the readers, so this is a mean
  // per recompute, not an exact counter.
  r.layers["sketch.boruvka_rounds"] =
      st1.recomputes > st0.recomputes
          ? static_cast<double>(st1.boruvka_rounds - st0.boruvka_rounds) /
                static_cast<double>(st1.recomputes - st0.recomputes)
          : 0.0;
}

/// paper-gc-mst: the paper's one-shot algorithms at n = 1024, each solve
/// on a fresh engine: GC on random_connected(n, 2n), EXACT-MST on a
/// random weighted clique.
void run_paper_gc_mst(Result& r, const Pass& pass) {
  constexpr std::uint32_t kN = 1024;
  Spans& spans = *pass.spans;
  r.threads["engine.threads"] = pass.threads;
  const std::uint64_t t_begin = now_ns();
  Metrics gc_first{}, mst_first{};
  std::uint32_t phases_first = 0;
  Series phase1_ms, phases_ms, sketch_span_ms, kkt_ms, sq_mst_ms, round_us;
  double last_iter_s = 0;
  for (int iter = 0;; ++iter) {
    const double elapsed = ns_to_ms(now_ns() - t_begin) / 1e3;
    if (iter > 0 && elapsed + last_iter_s > pass.budget_s) break;
    const std::uint64_t it0 = now_ns();
    SpanScope iter_span{spans, "bench.iteration"};
    const std::uint64_t s0 = now_ns();
    Graph g;
    WeightedGraph wg;
    std::unique_ptr<CliqueWeights> weights;
    {
      SpanScope s{spans, "bench.generate_inputs"};
      Rng rng{mix_seed(pass.seed, 4)};
      g = random_connected(kN, 2 * kN, rng);
      wg = random_weighted_clique(kN, rng);
      weights = std::make_unique<CliqueWeights>(CliqueWeights::from_graph(wg));
    }
    r.setup_s.add(ns_to_ms(now_ns() - s0) / 1e3);

    EngineConfig ecfg;
    ecfg.n = kN;
    ecfg.threads = pass.threads;
    Trace gc_trace, mst_trace;
    GcResult gc;
    {
      CliqueEngine engine{ecfg};
      if (pass.traced()) engine.set_trace(&gc_trace);
      Rng rng{mix_seed(pass.seed, 5)};
      SpanScope s{spans, "core.gc_spanning_forest"};
      const std::uint64_t t0 = now_ns();
      gc = gc_spanning_forest(engine, g, rng);
      r.fast_ms.add(ns_to_ms(now_ns() - t0));
      spans.attach_trace(s.id(), gc_trace, 0);
      const Metrics m = engine.metrics();
      if (iter == 0)
        gc_first = m;
      else
        r.check(m.rounds == gc_first.rounds &&
                    m.messages == gc_first.messages &&
                    m.words == gc_first.words,
                "GC model counters differ between identical solves");
      if (pass.traced()) {
        engine.set_trace(nullptr);
        round_us.add(ns_to_ms(gc_trace.events().empty()
                                  ? 0
                                  : gc_trace.events()[0].wall_ns) *
                     1e3 / static_cast<double>(std::max<std::uint64_t>(
                               1, m.rounds)));
      }
    }
    ExactMstResult mst;
    {
      CliqueEngine engine{ecfg};
      if (pass.traced()) engine.set_trace(&mst_trace);
      Rng rng{mix_seed(pass.seed, 6)};
      SpanScope s{spans, "core.exact_mst"};
      const std::uint64_t t0 = now_ns();
      mst = exact_mst(engine, *weights, rng);
      r.slow_ms.add(ns_to_ms(now_ns() - t0));
      spans.attach_trace(s.id(), mst_trace, 0);
      const Metrics m = engine.metrics();
      if (iter == 0)
        mst_first = m;
      else
        r.check(m.rounds == mst_first.rounds &&
                    m.messages == mst_first.messages &&
                    m.words == mst_first.words,
                "MST model counters differ between identical solves");
      if (pass.traced()) engine.set_trace(nullptr);
    }
    r.attempted += 2;
    {
      SpanScope s{spans, "bench.oracle"};
      const VerifyResult vf = verify_spanning_forest(g, gc.forest);
      r.check(vf.ok, "gc forest: " + vf.message);
      r.check(gc.monte_carlo_ok, "gc monte_carlo_ok false");
      const VerifyResult vm = verify_msf(wg, mst.mst);
      r.check(vm.ok, "exact_mst: " + vm.message);
      r.check(mst.monte_carlo_ok, "exact_mst monte_carlo_ok false");
    }
    if (iter == 0) phases_first = gc.lotker_phases + mst.lotker_phases;
    if (pass.traced()) {
      // Per solve pair (one GC + one EXACT-MST).
      const double p1 = scope_sum(gc_trace, 0, "lotker/phase-1").ms +
                        scope_sum(mst_trace, 0, "lotker/phase-1").ms;
      const double all =
          segment_ms(gc_trace, "phase-") + segment_ms(mst_trace, "phase-");
      phase1_ms.add(p1);
      phases_ms.add(all);
      sketch_span_ms.add(scope_sum(gc_trace, 0, "gc/sketch-span").ms);
      const double sq = scope_sum(mst_trace, 0, "exact-mst/sq-mst-sample").ms +
                        scope_sum(mst_trace, 0, "exact-mst/sq-mst-light").ms;
      sq_mst_ms.add(sq);
      // KKT = EXACT-MST's own host work between its traced sub-steps
      // (sampling and the F-light filter).
      const double whole = scope_sum(mst_trace, 0, "exact-mst").ms;
      const double pre =
          scope_sum(mst_trace, 0, "exact-mst/cc-mst-preprocess").ms;
      const double contract =
          scope_sum(mst_trace, 0, "exact-mst/contract-component-graph").ms;
      kkt_ms.add(whole - pre - contract - sq);
    }
    last_iter_s = ns_to_ms(now_ns() - it0) / 1e3;
  }
  r.counters["model_rounds"] = gc_first.rounds + mst_first.rounds;
  r.counters["model_messages"] = gc_first.messages + mst_first.messages;
  r.counters["model_words"] = gc_first.words + mst_first.words;
  r.counters["gc.rounds"] = gc_first.rounds;
  r.counters["mst.rounds"] = mst_first.rounds;
  r.counters["lotker.phases"] = phases_first;
  r.detail["gc_ms"] = {r.fast_ms.median(), "ms"};
  r.detail["mst_ms"] = {r.slow_ms.median(), "ms"};
  r.detail["model_rounds"] = {
      static_cast<double>(gc_first.rounds + mst_first.rounds), "count"};
  r.detail["model_messages"] = {
      static_cast<double>(gc_first.messages + mst_first.messages), "count"};
  r.detail["model_words"] = {
      static_cast<double>(gc_first.words + mst_first.words), "count"};
  r.layers["lotker.phase1_ms"] = phase1_ms.median();
  r.layers["lotker.phases_ms"] = phases_ms.median();
  r.layers["lotker.phases"] = phases_first;
  r.layers["core.sketch_span_ms"] = sketch_span_ms.median();
  r.layers["core.kkt_ms"] = kkt_ms.median();
  r.layers["core.sq_mst_ms"] = sq_mst_ms.median();
  r.layers["clique.round_us"] = round_us.median();
}

// ---------------------------------------------------------------- output

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string num(double x) {
  if (!std::isfinite(x)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool optimized_build() {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  return true;
#else
  return false;
#endif
}

/// Per-layer self time over the span forest: a node's duration minus its
/// children's; layer = prefix of the span name before the first '.', or
/// the owning subsystem of an attached engine trace scope.
std::string layer_of(const SpanNode& s) {
  if (!s.from_trace) return s.name.substr(0, s.name.find('.'));
  const std::string p = s.name.substr(6);  // strip "trace:"
  const auto slash = p.rfind('/');
  const std::string parent = slash == std::string::npos ? "" : p.substr(0, slash);
  const std::string last = slash == std::string::npos ? p : p.substr(slash + 1);
  if (ends_with(parent, "comm") || last == "bootstrap-seed" ||
      last == "shared-randomness")
    return "comm";
  if (last.rfind("phase-", 0) == 0 || last == "r2r3-candidate-relay" ||
      last == "local-boruvka" || last == "r4r5-merge-broadcast")
    return "lotker";
  if (last == "recompute-*") return "sketch";
  if (last == "service" || last == "ingest-batch-*" ||
      last == "collect-sketches" || last == "broadcast-forest")
    return "service";
  return "core";
}

void write_spans(const std::string& path, const Spans& spans,
                 const std::string& workload, std::uint64_t seed,
                 const std::map<std::string, double>& overhead) {
  const auto& nodes = spans.nodes();
  std::vector<std::uint64_t> child_sum(nodes.size(), 0);
  for (const SpanNode& s : nodes)
    if (s.parent >= 0) child_sum[static_cast<std::size_t>(s.parent)] += s.dur_ns;
  // Per layer: self time, and inclusive time counted once per outermost
  // span of that layer (no ancestor in the same layer).
  std::map<std::string, std::pair<double, double>> layer;  // inclusive, self
  std::map<std::string, std::pair<double, std::uint64_t>> by_name;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const SpanNode& s = nodes[i];
    const std::string name = layer_of(s);
    const double self =
        ns_to_ms(s.dur_ns > child_sum[i] ? s.dur_ns - child_sum[i] : 0);
    auto& l = layer[name];
    l.second += self;
    bool outermost = true;
    for (std::int64_t a = s.parent; a >= 0 && outermost;
         a = nodes[static_cast<std::size_t>(a)].parent)
      outermost = layer_of(nodes[static_cast<std::size_t>(a)]) != name;
    if (outermost) l.first += ns_to_ms(s.dur_ns);
    auto& b = by_name[s.name];
    b.first += ns_to_ms(s.dur_ns);
    ++b.second;
  }
  std::ofstream out{path};
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n", path.c_str());
    return;
  }
  out << "{\"workload\":\"" << json_escape(workload) << "\",\"seed\":" << seed
      << ",\"tracing_overhead\":{";
  bool first = true;
  for (const auto& [k, v] : overhead) {
    out << (first ? "" : ",") << "\"" << k << "\":" << num(v);
    first = false;
  }
  out << "},\"layers\":{";
  first = true;
  for (const auto& [k, v] : layer) {
    out << (first ? "" : ",") << "\"" << json_escape(k)
        << "\":{\"inclusive_ms\":" << num(v.first)
        << ",\"self_ms\":" << num(v.second) << "}";
    first = false;
  }
  out << "},\"by_name\":{";
  first = true;
  for (const auto& [k, v] : by_name) {
    out << (first ? "" : ",") << "\"" << json_escape(k)
        << "\":{\"total_ms\":" << num(v.first) << ",\"count\":" << v.second
        << "}";
    first = false;
  }
  out << "},\"spans\":[\n";
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const SpanNode& s = nodes[i];
    out << "{\"id\":" << i << ",\"name\":\"" << json_escape(s.name)
        << "\",\"parent\":" << s.parent << ",\"thread\":" << s.thread;
    if (!s.from_trace)
      out << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":"
          << s.start_ns + s.dur_ns;
    out << ",\"dur_ns\":" << s.dur_ns << "}"
        << (i + 1 < nodes.size() ? ",\n" : "\n");
  }
  out << "]}\n";
}

const std::vector<std::string>& layer_metric_names() {
  static const std::vector<std::string> names = {
      "service.boot_ms", "service.apply_batch_ms", "service.sig_hit_ratio",
      "service.recompute_ms", "service.stale_query_frac",
      "service.query_call_us_p99", "comm.route_ms", "comm.schedule_ms",
      "comm.deliver_ms", "comm.route_rounds", "comm.color_batches",
      "comm.packets", "clique.rounds", "clique.messages", "clique.words",
      "clique.round_us", "sketch.boruvka_ms", "sketch.boruvka_rounds",
      "lotker.phase1_ms", "lotker.phases_ms", "lotker.phases",
      "core.sketch_span_ms", "core.kkt_ms", "core.sq_mst_ms",
      "telemetry.request_overhead_ns", "telemetry.flight_dropped",
      "bench.generator_lag_ms"};
  return names;
}

int usage() {
  std::fputs(
      "usage: perfbench --workload recompute-engine|ingest-local|serve-mixed|"
      "paper-gc-mst --seed N --seconds S --trace 0|1 [--spans FILE]\n",
      stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string spans_path;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  bool have_seed = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (i + 1 >= argc) return usage();
      const std::string v = argv[++i];
      if (a == "--workload") workload = v;
      else if (a == "--seed") { seed = std::stoull(v); have_seed = true; }
      else if (a == "--seconds") seconds = std::stod(v);
      else if (a == "--trace") trace = std::stoi(v);
      else if (a == "--spans") spans_path = v;
      else return usage();
    }
  } catch (const std::exception&) {
    return usage();
  }
  const long nproc = std::max(1L, sysconf(_SC_NPROCESSORS_ONLN));
  if (workload.empty() || !have_seed || seconds <= 0 ||
      (trace != 0 && trace != 1))
    return usage();
  void (*fn)(Result&, const Pass&) = nullptr;
  if (workload == "recompute-engine") fn = run_recompute_engine;
  else if (workload == "ingest-local") fn = run_ingest_local;
  else if (workload == "serve-mixed") fn = run_serve_mixed;
  else if (workload == "paper-gc-mst") fn = run_paper_gc_mst;
  else return usage();

  Result timed;  // reported end-to-end numbers
  Result traced;
  std::map<std::string, double> overhead;
  Spans off{false};
  Spans on{true};
  try {
    Pass pass;
    pass.seed = seed;
    pass.nproc = static_cast<std::uint32_t>(nproc);
    // Two threads, not nproc: a parallel section waits for its slowest
    // lane, and on a shared 4-vCPU machine four lanes spread run-to-run.
    pass.threads = std::min<std::uint32_t>(2, pass.nproc);
    pass.spans = &off;
    pass.budget_s = trace ? seconds / 2 : seconds;
    fn(timed, pass);
    if (trace) {
      pass.spans = &on;
      const std::uint64_t dropped0 = telemetry::flight_recorder().dropped();
      fn(traced, pass);
      traced.layers["telemetry.flight_dropped"] = static_cast<double>(
          telemetry::flight_recorder().dropped() - dropped0);
      overhead["fast_op_ms"] = traced.fast_ms.median() - timed.fast_ms.median();
      overhead["slow_op_ms"] = traced.slow_ms.median() - timed.slow_ms.median();
      overhead["fast_op_frac"] =
          timed.fast_ms.median() > 0
              ? overhead["fast_op_ms"] / timed.fast_ms.median()
              : 0.0;
      overhead["slow_op_frac"] =
          timed.slow_ms.median() > 0
              ? overhead["slow_op_ms"] / timed.slow_ms.median()
              : 0.0;
      if (!spans_path.empty())
        write_spans(spans_path, on, workload, seed, overhead);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  // Exact counters: clique.* mirror the model counters of one unit of work
  // (one replay, one census, one GC + EXACT-MST pair).
  Result& lay = trace ? traced : timed;
  for (const char* k : {"model_rounds", "model_messages", "model_words"})
    if (!timed.counters.count(k)) timed.counters[k] = 0;
  lay.layers["clique.rounds"] = static_cast<double>(timed.counters["model_rounds"]);
  lay.layers["clique.messages"] =
      static_cast<double>(timed.counters["model_messages"]);
  lay.layers["clique.words"] = static_cast<double>(timed.counters["model_words"]);
  if (timed.counters.count("sketch.boruvka_rounds"))
    lay.layers["sketch.boruvka_rounds"] =
        static_cast<double>(timed.counters["sketch.boruvka_rounds"]);

  const std::uint64_t attempted = timed.attempted + traced.attempted;
  const std::uint64_t failed = timed.failed + traced.failed;
  std::vector<std::string> invalid = timed.invalid;
  if (!optimized_build())
    invalid.push_back("non-optimised build (needs -O2 or higher and NDEBUG)");
  for (const auto& [k, v] : timed.threads)
    if (v < 1 || static_cast<long>(v) > nproc)
      invalid.push_back("thread count " + k + " outside [1, nproc]");

  std::ostringstream o;
  o << "{\"workload\":\"" << workload << "\",\"seed\":" << seed
    << ",\"seconds\":" << num(seconds) << ",\"trace\":" << trace;
  o << ",\"fingerprint\":{\"nproc\":" << nproc << ",\"compiler\":\""
    << PERFBENCH_CXX_ID << " " << PERFBENCH_CXX_VERSION
    << "\",\"compiler_version_string\":\"" << json_escape(__VERSION__)
    << "\",\"cmake_build_type\":\"" << PERFBENCH_BUILD_TYPE
    << "\",\"optimized\":" << (optimized_build() ? "true" : "false")
    << ",\"telemetry_compiled_in\":"
    << (telemetry::kCompiledIn ? "true" : "false") << ",\"threads\":{";
  bool first = true;
  for (const auto& [k, v] : timed.threads) {
    o << (first ? "" : ",") << "\"" << k << "\":" << v;
    first = false;
  }
  o << "}}";
  o << ",\"valid\":" << (invalid.empty() ? "true" : "false")
    << ",\"invalid_reasons\":[";
  for (std::size_t i = 0; i < invalid.size(); ++i)
    o << (i ? "," : "") << "\"" << json_escape(invalid[i]) << "\"";
  o << "],\"end_to_end\":{";
  const auto metric = [&](const char* name, double value, const char* unit,
                          std::size_t samples, bool comma) {
    o << (comma ? "," : "") << "\"" << name << "\":{\"value\":" << num(value)
      << ",\"unit\":\"" << unit << "\",\"samples\":" << samples << "}";
  };
  metric("setup_s", timed.setup_s.median(), "s", timed.setup_s.count(), false);
  metric("fast_op_ms", timed.fast_ms.median(), "ms",
         timed.fast_samples ? timed.fast_samples : timed.fast_ms.count(), true);
  metric("slow_op_ms", timed.slow_ms.median(), "ms",
         timed.slow_samples ? timed.slow_samples : timed.slow_ms.count(), true);
  metric("peak_rss_mb", peak_rss_mb(), "MB", 1, true);
  o << "},\"detail\":{";
  first = true;
  for (const auto& [k, v] : timed.detail) {
    o << (first ? "" : ",") << "\"" << k << "\":{\"value\":"
      << num(v.first) << ",\"unit\":\"" << v.second << "\"}";
    first = false;
  }
  o << (first ? "" : ",") << "\"error_frac\":{\"value\":"
    << num(attempted ? static_cast<double>(failed) /
                           static_cast<double>(attempted)
                     : 1.0)
    << ",\"unit\":\"ratio\"}";
  o << "},\"counters\":{";
  first = true;
  for (const auto& [k, v] : timed.counters) {
    o << (first ? "" : ",") << "\"" << k << "\":" << v;
    first = false;
  }
  o << "}";
  if (trace) {
    o << ",\"per_layer\":{";
    first = true;
    for (const std::string& k : layer_metric_names()) {
      const auto it = lay.layers.find(k);
      o << (first ? "" : ",") << "\"" << k
        << "\":" << num(it == lay.layers.end() ? 0.0 : it->second);
      first = false;
    }
    o << "},\"tracing_overhead\":{";
    first = true;
    for (const auto& [k, v] : overhead) {
      o << (first ? "" : ",") << "\"" << k << "\":" << num(v);
      first = false;
    }
    o << "},\"spans\":" << on.count();
  }
  o << ",\"attempted\":" << attempted << ",\"failed\":" << failed
    << ",\"correct\":" << (failed == 0 ? "true" : "false")
    << ",\"failures\":[";
  std::vector<std::string> all_failures = timed.failures;
  all_failures.insert(all_failures.end(), traced.failures.begin(),
                      traced.failures.end());
  for (std::size_t i = 0; i < all_failures.size(); ++i)
    o << (i ? "," : "") << "\"" << json_escape(all_failures[i]) << "\"";
  o << "]}";
  std::printf("%s\n", o.str().c_str());
  return failed == 0 ? 0 : 3;
}
