"""Rule families CL001-CL012 over the clast semantic IR.

Every rule consumes resolved facts (receiver types, sequence types,
include targets) — never raw source lines. Unresolved types ('') never
fire a rule: the frontends put their imprecision on the false-negative
side, and the seeded-violation fixtures pin the true-positive floor.

Path allowlists are repo-root-relative '/'-separated prefixes; the
seeded fixtures under tools/cliquelint/fixtures/ pin each rule's
allowed and forbidden paths.
"""

from __future__ import annotations

from clast.model import (FLOAT_TYPES, INT_WIDTHS, OVERWIDE_TYPES,
                         UNORDERED_HEADS, FileModel, Finding, KnowledgeBase)

# ---------------------------------------------------------------------------
# Allowlists.
# ---------------------------------------------------------------------------

NONDET_ALLOWED = ("src/util/random", "src/comm/shared_random",
                  "src/util/clock")
METRICS_ALLOWED = ("src/clique/", "src/comm/")
TRACE_ALLOWED = ("src/clique/",)
LOAD_ALLOWED = ("src/clique/", "src/comm/")
PACKING_ALLOWED = ("src/sketch/wire", "src/clique/packed_message",
                   "src/sketch/sketch_kernels")
LAYERING_NO_LOWERBOUND_FROM = (
    "src/core/", "src/lotker/", "src/kt1/", "src/baseline/", "src/sketch/",
    "src/convert/", "src/clique/", "src/comm/", "src/graph/", "src/hash/",
    "src/util/",
)
ROUND_BUFFER_HEADER = "clique/round_buffer.hpp"
ROUND_BUFFER_ALLOWED = ("src/clique/", "src/comm/")

# CL008: the audited O(log n)-bit payload carriers. `Message` is the wire
# unit the packed_message codec serializes; its fields are uint64 model
# words, so passing one to Outbox::send is the sanctioned path.
AUDITED_PAYLOAD_TYPES = {"Message"}
MSG_BUILDERS = {"msg0", "msg1", "msg2", "msg3", "msg4"}
WORD_BITS = 64  # uint64 lanes carry the model's O(log n)-bit words

# CL009: RAII types whose unnamed temporaries die at end of
# full-expression, silently voiding the scope they were meant to hold.
RAII_TYPES = {"TraceScope", "MetricsScope", "std::lock_guard",
              "std::scoped_lock", "std::unique_lock", "std::shared_lock",
              "lock_guard", "scoped_lock", "unique_lock", "shared_lock"}

# CL011: telemetry instrument discipline (src/telemetry/, docs/TELEMETRY.md).
# Registration takes the registry mutex plus a map lookup, so it belongs at
# namespace scope or in a constructor — never on a per-round path; mutation
# through the returned instrument references is the wait-free half and is
# a src/-internal privilege (tools and benches read snapshots instead).
TELEMETRY_ALLOWED = ("src/telemetry/",)
REGISTRY_TYPES = {"MetricsRegistry", "telemetry::MetricsRegistry"}
REGISTRATION_METHODS = {"counter", "gauge", "histogram", "wall_histogram"}
INSTRUMENT_MUTATORS = {
    "Counter": {"add"}, "telemetry::Counter": {"add"},
    "Gauge": {"set", "add"}, "telemetry::Gauge": {"set", "add"},
    "Histogram": {"record"}, "telemetry::Histogram": {"record"},
}

# CL012: flight-recorder event emission (src/telemetry/flight_recorder.hpp,
# docs/TELEMETRY.md). record() is how the *service* narrates its own
# request lifecycle; a tool or bench emitting events would interleave
# synthetic entries into the dump an operator reads as the service's black
# box (and into the canonical dump the determinism gates byte-compare).
# Tools consume dumps — dump_ndjson/canonical_ndjson/dump_to_file/collect
# are all read-side and stay unrestricted.
RECORDER_TYPES = {"FlightRecorder", "telemetry::FlightRecorder"}
RECORDER_EMITTERS = {"record"}

# CL001 nondeterminism sources.
RNG_TYPE_HEADS = {"std::random_device", "std::mt19937", "std::mt19937_64",
                  "std::default_random_engine", "std::minstd_rand",
                  "std::minstd_rand0", "std::ranlux24", "std::ranlux48",
                  "std::knuth_b", "random_device", "mt19937", "mt19937_64",
                  "default_random_engine"}
RNG_FREE_CALLS = {"rand", "srand", "std::rand", "std::srand", "time",
                  "std::time", "getpid", "drand48", "lrand48", "rand_r",
                  "random", "std::random_shuffle", "random_shuffle",
                  "std::random_device", "random_device"}

TRACE_MUTATORS = {"record_round", "record_silent", "record_absorbed",
                  "open_scope", "close_scope", "bind_engine",
                  "bind_load_profile", "clear", "reserve_rounds"}
LOAD_MUTATORS = {"bind_engine", "add_sent", "add_received", "add_flow",
                 "add_broadcast", "add_link", "record_round",
                 "record_silent", "record_absorbed", "checkpoint",
                 "set_track_links", "clear"}
METRICS_COUNTERS = {"rounds", "messages", "words", "max_messages_in_round",
                    "has_peak"}

# CL007: engine accounting calls that feed deterministic output.
ENGINE_SINK_METHODS = {"observe", "attribute_load", "attribute_broadcast",
                       "charge_round", "charge_verified_round"}
SEQ_APPEND_METHODS = {"push_back", "emplace_back"}
SEQ_HEADS = {"std::vector", "std::deque", "std::string", "vector", "deque"}

RULE_DOCS = {
    "CL001": "determinism: nondeterminism sources confined to "
             "util/random, comm/shared_random, util/clock",
    "CL002": "metrics: Metrics counters mutated only by the engine and "
             "comm layers",
    "CL003": "wire-packing: reinterpret_cast/memcpy confined to the "
             "audited codec modules",
    "CL004": "layering: include-graph rules (lowerbound is a leaf; "
             "round_buffer is engine-internal; no include cycles)",
    "CL005": "tracing: Trace mutated only via TraceScope / src/clique",
    "CL006": "load: LoadProfile mutated only by the engine and comm "
             "layers",
    "CL007": "determinism: unordered-container iteration must not feed "
             "sends, accounting, traces, or ordered accumulation",
    "CL008": "bandwidth: Outbox::send payloads must be O(log n)-bit "
             "model words or the audited Message codec",
    "CL009": "RAII: unnamed TraceScope/lock-guard temporaries die at end "
             "of full-expression",
    "CL010": "capture: by-reference lambda captures of loop-local state "
             "submitted to util/thread_pool",
    "CL011": "telemetry: instrument registration only at namespace scope "
             "or in constructors; instrument mutation confined to src/",
    "CL012": "telemetry: flight-recorder event emission (record) confined "
             "to src/; tools and benches read dumps, they do not write "
             "events",
}


def _under(rel: str, prefixes) -> bool:
    return any(rel.startswith(p) for p in prefixes)


def _loop_subtree(fm: FileModel, root_id: int) -> set[int]:
    """root_id plus every loop nested inside it."""
    children: dict[int, list[int]] = {}
    for lp in fm.loops:
        children.setdefault(lp.parent, []).append(lp.id)
    out = set()
    stack = [root_id]
    while stack:
        cur = stack.pop()
        out.add(cur)
        stack.extend(children.get(cur, []))
    return out


def _loop_chain(fm: FileModel, loop_id: int) -> set[int]:
    """loop_id plus every enclosing loop."""
    by_id = {lp.id: lp for lp in fm.loops}
    out = set()
    cur = loop_id
    while cur != -1 and cur in by_id and cur not in out:
        out.add(cur)
        cur = by_id[cur].parent
    return out


def _resolve_qualified(name: str, kb: KnowledgeBase) -> str:
    """Expand a leading alias in a qualified call name:
    Clock::now -> std::chrono::steady_clock::now."""
    if "::" not in name:
        return name
    head, rest = name.split("::", 1)
    seen = set()
    while head in kb.aliases and head not in seen:
        seen.add(head)
        head = kb.aliases[head].replace(" ", "")
    return f"{head}::{rest}"


# ---------------------------------------------------------------------------
# CL001 — determinism sources
# ---------------------------------------------------------------------------

def check_cl001(fm: FileModel, kb: KnowledgeBase) -> list[Finding]:
    if _under(fm.path, NONDET_ALLOWED):
        return []
    out = []
    msg = ("nondeterminism source {what}: draw randomness via util/random "
           "(local) or comm/shared_random (shared) so seeded runs stay "
           "bit-identical")
    for f in fm.free_calls:
        name = _resolve_qualified(f.name, kb)
        if name in RNG_FREE_CALLS:
            out.append(Finding(fm.path, f.line, "CL001",
                               msg.format(what=f"{f.name}()"), col=f.col))
        elif name.endswith("::now") and "clock" in name.lower():
            out.append(Finding(fm.path, f.line, "CL001",
                               msg.format(what="<chrono> clock ::now()"),
                               col=f.col))
    for d in fm.decls:
        if kb.canonical(d.type) in RNG_TYPE_HEADS:
            out.append(Finding(
                fm.path, d.line, "CL001",
                msg.format(what=f"declaration of {d.type.strip()}")))
    return out


# ---------------------------------------------------------------------------
# CL002 — Metrics accounting
# ---------------------------------------------------------------------------

def check_cl002(fm: FileModel, kb: KnowledgeBase) -> list[Finding]:
    if _under(fm.path, METRICS_ALLOWED):
        return []
    out = []
    for w in fm.member_writes:
        if w.receiver_type == "Metrics" and w.fieldname in METRICS_COUNTERS:
            out.append(Finding(
                fm.path, w.line, "CL002",
                f"Metrics field '{w.fieldname}' mutated outside "
                "src/clique|src/comm: algorithms observe the engine's "
                "accounting, they do not write it", col=w.col))
    return out


# ---------------------------------------------------------------------------
# CL003 — raw payload packing
# ---------------------------------------------------------------------------

def check_cl003(fm: FileModel, kb: KnowledgeBase) -> list[Finding]:
    if _under(fm.path, PACKING_ALLOWED):
        return []
    return [Finding(fm.path, c.line, "CL003",
                    f"raw payload packing ({c.kind}) outside "
                    "src/sketch/wire: route byte-level encoding through "
                    "the audited wire module", col=c.col)
            for c in fm.casts]


# ---------------------------------------------------------------------------
# CL004 — layering (include graph + cycles)
# ---------------------------------------------------------------------------

def check_cl004(fm: FileModel, kb: KnowledgeBase) -> list[Finding]:
    out = []
    for inc in fm.includes:
        if inc.angled:
            continue
        if inc.target.startswith("lowerbound/") and _under(
                fm.path, LAYERING_NO_LOWERBOUND_FROM):
            out.append(Finding(
                fm.path, inc.line, "CL004",
                f'layer violation: "{inc.target}" — lowerbound/ is a leaf '
                "layer; algorithm and engine modules must not depend on "
                "the adversary constructions"))
        if inc.target == ROUND_BUFFER_HEADER and \
                fm.path.startswith("src/") and \
                not _under(fm.path, ROUND_BUFFER_ALLOWED):
            out.append(Finding(
                fm.path, inc.line, "CL004",
                f'layer violation: "{inc.target}" is the engine-internal '
                "arena; only src/clique and src/comm may include it"))
    return out


def check_include_cycles(models: list[FileModel]) -> list[Finding]:
    """Cross-file pass: report each include cycle once, anchored at its
    lexicographically smallest member."""
    graph: dict[str, list[tuple[str, int]]] = {}
    for fm in models:
        graph[fm.path] = [(i.resolved, i.line) for i in fm.includes
                          if i.resolved]
    out = []
    seen_cycles: set[frozenset] = set()
    WHITE, GREY, BLACK = 0, 1, 2
    color = {p: WHITE for p in graph}

    def dfs(path: str, stack: list[str]) -> None:
        color[path] = GREY
        stack.append(path)
        for (dep, line) in graph.get(path, []):
            if dep not in color:
                continue
            if color[dep] == GREY:
                cyc = stack[stack.index(dep):]
                key = frozenset(cyc)
                if key not in seen_cycles:
                    seen_cycles.add(key)
                    anchor = min(cyc)
                    out.append(Finding(
                        anchor, line if path == anchor else 1, "CL004",
                        "include cycle: " + " -> ".join(cyc + [dep])))
            elif color[dep] == WHITE:
                dfs(dep, stack)
        stack.pop()
        color[path] = BLACK

    for p in sorted(graph):
        if color[p] == WHITE:
            dfs(p, [])
    return out


# ---------------------------------------------------------------------------
# CL005 / CL006 — Trace and LoadProfile mutation
# ---------------------------------------------------------------------------

def check_cl005(fm: FileModel, kb: KnowledgeBase) -> list[Finding]:
    if _under(fm.path, TRACE_ALLOWED):
        return []
    out = []
    for c in fm.member_calls:
        if c.receiver_type == "Trace" and c.method in TRACE_MUTATORS:
            out.append(Finding(
                fm.path, c.line, "CL005",
                f"Trace method '{c.method}' called outside src/clique: "
                "algorithm modules attribute cost through RAII TraceScope "
                "objects, never by writing trace records directly",
                col=c.col))
    return out


def check_cl006(fm: FileModel, kb: KnowledgeBase) -> list[Finding]:
    if _under(fm.path, LOAD_ALLOWED):
        return []
    out = []
    for c in fm.member_calls:
        if c.receiver_type == "LoadProfile" and c.method in LOAD_MUTATORS:
            out.append(Finding(
                fm.path, c.line, "CL006",
                f"LoadProfile method '{c.method}' called outside "
                "src/clique|src/comm: algorithm modules attribute load "
                "through CliqueEngine::attribute_load / "
                "attribute_broadcast, never by writing the profile "
                "directly", col=c.col))
    return out


# ---------------------------------------------------------------------------
# CL007 — unordered iteration feeding deterministic output
# ---------------------------------------------------------------------------

def _seq_head(type_text: str) -> str:
    t = type_text.replace(" ", "")
    for kw in ("const", "volatile"):
        while t.startswith(kw):
            t = t[len(kw):]
    while t and t[-1] in "&*":
        t = t[:-1]
    if "<" in t:
        t = t[:t.index("<")]
    return t


def check_cl007(fm: FileModel, kb: KnowledgeBase) -> list[Finding]:
    out = []
    decls_by_func: dict[str, dict[str, list]] = {}
    for d in fm.decls:
        decls_by_func.setdefault(d.func, {}).setdefault(d.name, []).append(d)
    for lp in fm.loops:
        if lp.kind != "range-for" or not lp.seq_type:
            continue
        if _seq_head(lp.seq_type) not in UNORDERED_HEADS:
            continue
        subtree = _loop_subtree(fm, lp.id)
        sink = None  # (line, description)
        for c in fm.member_calls:
            if c.loop not in subtree:
                continue
            if c.receiver_type == "Outbox" and c.method == "send":
                sink = (c.line, "Outbox::send")
            elif c.receiver_type == "CliqueEngine" and \
                    c.method in ENGINE_SINK_METHODS:
                sink = (c.line, f"CliqueEngine::{c.method}")
            elif c.receiver_type == "Trace" and c.method in TRACE_MUTATORS:
                sink = (c.line, f"Trace::{c.method}")
            elif c.receiver_type == "LoadProfile" and \
                    c.method in LOAD_MUTATORS:
                sink = (c.line, f"LoadProfile::{c.method}")
            elif c.method in SEQ_APPEND_METHODS and \
                    c.receiver.isidentifier():
                cands = decls_by_func.get(c.func, {}).get(c.receiver, [])
                for d in cands:
                    if d.loop not in subtree and \
                            (not d.type or
                             _seq_head(kb.expand(d.type)) in SEQ_HEADS):
                        sink = (c.line,
                                f"ordered accumulation into '{c.receiver}'")
                        break
            if sink:
                break
        if sink is None:
            for w in fm.member_writes:
                if w.loop in subtree and w.receiver_type == "Metrics":
                    sink = (w.line, f"Metrics::{w.fieldname} write")
                    break
        if sink:
            out.append(Finding(
                fm.path, lp.line, "CL007",
                f"iteration over unordered container '{lp.seq_expr}' "
                f"({_seq_head(lp.seq_type)}) feeds {sink[1]} at line "
                f"{sink[0]}: hash-order nondeterminism breaks bit-identical "
                "replay — iterate a sorted view or an ordered mirror "
                "container"))
    return out


# ---------------------------------------------------------------------------
# CL008 — bandwidth width of send payloads
# ---------------------------------------------------------------------------

def _payload_problem(t: str, kb: KnowledgeBase) -> str:
    """'' when the type may carry a model word; else the objection."""
    if not t:
        return ""
    if t in OVERWIDE_TYPES:
        return f"'{t}' is wider than the {WORD_BITS}-bit model word"
    if t in FLOAT_TYPES:
        return (f"'{t}' is a floating-point payload; the model carries "
                "O(log n)-bit integer words")
    if t in INT_WIDTHS:
        return ""
    if t in AUDITED_PAYLOAD_TYPES:
        return ""
    if t in kb.classes and kb.classes[t].line > 0:
        # A parsed (non-builtin) class/struct used as a raw payload.
        return (f"struct '{t}' is not an audited wire type; serialize "
                "through sketch/wire or clique/packed_message")
    if t.startswith("std::"):
        return (f"'{t}' is not a model word; payloads are O(log n)-bit "
                "integers or the audited Message codec")
    return ""


def check_cl008(fm: FileModel, kb: KnowledgeBase) -> list[Finding]:
    if _under(fm.path, PACKING_ALLOWED) or fm.path.startswith("src/clique/"):
        return []
    out = []
    msg = ("over-wide payload reaching Outbox::send: {why} "
           "(Hegeman et al. PODC'15 Section 1.2 charges bandwidth per "
           "O(log n)-bit word)")
    for c in fm.member_calls:
        if c.receiver_type == "Outbox" and c.method == "send":
            for t in c.arg_types:
                why = _payload_problem(t, kb)
                if why:
                    out.append(Finding(fm.path, c.line, "CL008",
                                       msg.format(why=why), col=c.col))
                    break
    for f in fm.free_calls:
        base = f.name.rsplit("::", 1)[-1]
        if base in MSG_BUILDERS:
            for t in f.arg_types:
                why = _payload_problem(t, kb)
                if why:
                    out.append(Finding(
                        fm.path, f.line, "CL008",
                        f"over-wide word passed to {base}(): {why}",
                        col=f.col))
                    break
    return out


# ---------------------------------------------------------------------------
# CL009 — unnamed RAII temporaries
# ---------------------------------------------------------------------------

def check_cl009(fm: FileModel, kb: KnowledgeBase) -> list[Finding]:
    out = []
    for t in fm.unnamed_temps:
        canon = kb.canonical(t.type)
        plain = canon.rsplit("::", 1)[-1]
        if canon in RAII_TYPES or plain in RAII_TYPES:
            out.append(Finding(
                fm.path, t.line, "CL009",
                f"unnamed {t.type.strip()} temporary is destroyed at the "
                "end of the full-expression — the guarded scope is empty; "
                "name the object so it lives to the end of the block",
                col=t.col))
    return out


# ---------------------------------------------------------------------------
# CL010 — by-reference capture of loop-local state sent to the thread pool
# ---------------------------------------------------------------------------

def _is_pool_sink(lam, kb: KnowledgeBase) -> bool:
    if lam.sink_call != "run":
        return False
    t = lam.sink_receiver_type
    if t == "ThreadPool":
        return True
    if t in ("std::unique_ptr", "std::shared_ptr") and \
            "ThreadPool" in lam.stored_type:
        return True
    return False


def check_cl010(fm: FileModel, kb: KnowledgeBase) -> list[Finding]:
    out = []
    decls_by_func: dict[str, dict[str, list]] = {}
    for d in fm.decls:
        decls_by_func.setdefault(d.func, {}).setdefault(d.name, []).append(d)
    for lam in fm.lambdas:
        if lam.loop == -1 or not _is_pool_sink(lam, kb):
            continue
        chain = _loop_chain(fm, lam.loop)
        names = decls_by_func.get(lam.func, {})

        def loop_local(name: str) -> bool:
            return any(d.loop in chain for d in names.get(name, []))

        hazard = ""
        for cap in lam.captures:
            if not cap.by_ref:
                continue
            if cap.blanket:
                locals_used = sorted(n for n in lam.body_idents
                                     if loop_local(n))
                if locals_used:
                    hazard = (f"[&] captures loop-local "
                              f"'{locals_used[0]}' by reference")
                    break
            elif cap.name and cap.name != "this" and loop_local(cap.name):
                hazard = f"'&{cap.name}' captures loop-local state"
                break
        if hazard:
            out.append(Finding(
                fm.path, lam.line, "CL010",
                f"lambda submitted to ThreadPool::run from inside a loop: "
                f"{hazard}; the iteration variable may be reused or dead "
                "by the time the task runs — capture by value", col=lam.col))
    return out


# ---------------------------------------------------------------------------
# CL011 — telemetry instrument discipline
# ---------------------------------------------------------------------------

def _is_constructor(func: str) -> bool:
    """'Service::Service' (any namespace depth) — registration in a ctor
    runs once per object, which is the sanctioned instance-scoped form."""
    parts = func.split("::")
    return len(parts) >= 2 and parts[-1] == parts[-2]


def check_cl011(fm: FileModel, kb: KnowledgeBase) -> list[Finding]:
    if _under(fm.path, TELEMETRY_ALLOWED):
        return []
    out = []
    if fm.path.startswith("src/"):
        for c in fm.member_calls:
            if c.receiver_type in REGISTRY_TYPES and \
                    c.method in REGISTRATION_METHODS and \
                    c.func and not _is_constructor(c.func):
                where = "inside a loop" if c.loop != -1 else \
                        f"in function '{c.func}'"
                out.append(Finding(
                    fm.path, c.line, "CL011",
                    f"instrument registration '{c.method}' {where}: "
                    "registration takes the registry mutex and a name "
                    "lookup — register once at namespace scope or in a "
                    "constructor and mutate the returned reference",
                    col=c.col))
    else:
        for c in fm.member_calls:
            if c.method in INSTRUMENT_MUTATORS.get(c.receiver_type, ()):
                out.append(Finding(
                    fm.path, c.line, "CL011",
                    f"telemetry instrument mutation "
                    f"'{c.receiver_type}::{c.method}' outside src/: tools "
                    "and benches observe the registry through snapshots "
                    "(exposition/delta), they do not write instruments",
                    col=c.col))
    return out


# ---------------------------------------------------------------------------
# CL012 — flight-recorder emission discipline
# ---------------------------------------------------------------------------

def check_cl012(fm: FileModel, kb: KnowledgeBase) -> list[Finding]:
    if fm.path.startswith("src/"):
        return []  # emission is the service's privilege anywhere in src/
    out = []
    for c in fm.member_calls:
        if c.receiver_type in RECORDER_TYPES and \
                c.method in RECORDER_EMITTERS:
            out.append(Finding(
                fm.path, c.line, "CL012",
                f"flight-recorder event emission "
                f"'{c.receiver_type}::{c.method}' outside src/: dumps are "
                "the service's own black box — tools and benches read "
                "them (dump_ndjson/collect), they do not inject events",
                col=c.col))
    return out


PER_FILE_CHECKS = [check_cl001, check_cl002, check_cl003, check_cl004,
                   check_cl005, check_cl006, check_cl007, check_cl008,
                   check_cl009, check_cl010, check_cl011, check_cl012]


def run_rules(models: list[FileModel], kb: KnowledgeBase) -> list[Finding]:
    findings: list[Finding] = []
    for fm in models:
        for check in PER_FILE_CHECKS:
            findings.extend(check(fm, kb))
    findings.extend(check_include_cycles(models))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings
