#!/usr/bin/env python3
"""cliquelint v2 — AST-grounded model-conformance analysis.

The test suite certifies the paper's counting claims (rounds, messages,
bandwidth feasibility; Hegeman et al., PODC'15 Section 1.2) only as long
as every algorithm module plays by the simulator's rules. cliquelint
grounds those rules in a semantic model (clast.FileModel) with resolved
receiver types, alias expansion, a real include graph, and loop/lambda
structure, so it also checks rule families (CL007-CL010) that line
regexes fundamentally cannot express:

  CL001  determinism    nondeterminism sources (rand/srand, RNG engine
                        declarations, time(), chrono clock ::now() even
                        through `using Clock = ...` aliases) confined to
                        src/util/random, src/comm/shared_random,
                        src/util/clock.
  CL002  metrics        writes to Metrics counter fields, matched on the
                        *resolved receiver type* (any alias, any spelling),
                        confined to src/clique + src/comm.
  CL003  wire-packing   reinterpret_cast / memcpy confined to the audited
                        codec modules (sketch/wire, clique/packed_message,
                        sketch/sketch_kernels).
  CL004  layering       include-graph rules from the preprocessor's actual
                        includes: lowerbound/ is a leaf; round_buffer.hpp
                        is engine-internal; include cycles are errors.
  CL005  tracing        Trace mutation methods on resolved Trace receivers
                        confined to src/clique (TraceScope is the API).
  CL006  load           LoadProfile mutation on resolved receivers confined
                        to src/clique + src/comm.
  CL007  determinism    range-for over std::unordered_{map,set} whose body
                        feeds Outbox::send, engine accounting, Trace/
                        LoadProfile records, Metrics writes, or ordered
                        accumulation — hash-order breaks replay.
  CL008  bandwidth      payloads reaching Outbox::send / the msg0..msg4
                        builders statically wider than the O(log n)-bit
                        model word (floats, __int128, SIMD vectors, raw
                        structs) unless routed through the audited codecs.
  CL009  RAII           unnamed TraceScope / MetricsScope / lock-guard
                        temporaries destroyed at end of full-expression.
  CL010  capture        by-reference lambda captures of loop-local state
                        submitted to util/thread_pool ThreadPool::run.
  CL011  telemetry      instrument registration only at namespace scope or
                        in constructors; Counter/Gauge/Histogram mutation
                        on resolved receivers confined to src/.
  CL012  telemetry      FlightRecorder::record (event emission) confined
                        to src/ — tools and benches read dumps, they do
                        not inject events.

Usage:
  cliquelint.py [PATH ...] [--root DIR] [--frontend internal|clang|auto]
                [--compile-commands FILE] [--cache FILE] [--jobs N]
                [--baseline FILE] [--json FILE] [--sarif FILE]
                [--expect RULE] [--no-default-baseline]

PATHs (files or directories, default: src) resolve relative to --root
(default: the repository root, two levels above this script). Exit status
is 0 when clean (after baseline suppression), 1 on violations, 2 on usage
errors. --expect RULE inverts the contract for seeded-violation fixtures:
exit 0 iff the scan finds at least one violation and every violation is
of RULE.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from clast import engine as ce  # noqa: E402


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", default=None,
                        help="files or directories to scan (default: src)")
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parents[2],
                        help="repository root used to resolve rule paths")
    parser.add_argument("--frontend", default="internal",
                        choices=["internal", "clang", "auto"],
                        help="semantic frontend (default: internal; "
                             "'auto' upgrades to libclang when available)")
    parser.add_argument("--compile-commands", type=Path, default=None,
                        metavar="FILE",
                        help="compile_commands.json: adds its TUs to the "
                             "scan set and feeds per-TU flags to the "
                             "clang frontend")
    parser.add_argument("--cache", type=Path, default=None, metavar="FILE",
                        help="per-file content-hash parse cache "
                             "(warm runs re-parse only edited files)")
    parser.add_argument("--jobs", type=int, default=None,
                        help="parallel parse workers (default: cpu count)")
    parser.add_argument("--baseline", type=Path, default=None,
                        metavar="FILE",
                        help="suppression baseline JSON (default: "
                             "baseline.json next to this script)")
    parser.add_argument("--no-default-baseline", action="store_true",
                        help="do not load the default baseline.json")
    parser.add_argument("--json", type=Path, default=None, metavar="FILE",
                        help="write a JSON report to FILE")
    parser.add_argument("--sarif", type=Path, default=None, metavar="FILE",
                        help="write a SARIF 2.1.0 report to FILE")
    parser.add_argument("--expect", default=None, metavar="RULE",
                        help="fixture mode: succeed iff the scan finds >=1 "
                             "violation and all violations are of RULE")
    args = parser.parse_args(argv)

    root = args.root.resolve()
    scan_paths = list(args.paths or [])
    compile_args = None
    if args.compile_commands is not None:
        try:
            compile_args = ce.load_compile_commands(args.compile_commands)
        except (OSError, json.JSONDecodeError, KeyError) as e:
            print(f"cliquelint: bad compile_commands.json: {e}",
                  file=sys.stderr)
            return 2
        if not scan_paths:
            scan_paths = [p for p in compile_args
                          if Path(p).is_relative_to(root)]
    if not scan_paths:
        scan_paths = ["src"]

    try:
        files = ce.collect_files(root, scan_paths)
    except FileNotFoundError as e:
        print(f"cliquelint: no such path: {e}", file=sys.stderr)
        return 2

    baseline_path = args.baseline
    if baseline_path is None and not args.no_default_baseline \
            and args.expect is None:
        default = Path(__file__).resolve().parent / "baseline.json"
        if default.is_file():
            baseline_path = default
    baseline = ce.Baseline(baseline_path)

    try:
        res = ce.analyze(
            root, files, frontend=args.frontend,
            cache=ce.ModelCache(args.cache), baseline=baseline,
            compile_args=compile_args, jobs=args.jobs)
    except RuntimeError as e:
        print(f"cliquelint: {e}", file=sys.stderr)
        return 2

    for f in res.active:
        print(f)
    for f in res.findings:
        if f.suppressed:
            print(f"{f}  [suppressed: baseline]")
    for e in res.expired_suppressions:
        print(f"cliquelint: baseline entry EXPIRED "
              f"({e.get('expires')}): {e.get('rule')} {e.get('path')} — "
              f"{e.get('reason', 'no reason recorded')}", file=sys.stderr)
    for e in res.unused_suppressions:
        print(f"cliquelint: baseline entry no longer matches anything: "
              f"{e.get('rule')} {e.get('path')} "
              f"({e.get('fingerprint')}) — remove it", file=sys.stderr)

    if args.json:
        args.json.write_text(
            json.dumps(ce.json_report(res, root), indent=2) + "\n",
            encoding="utf-8")
    if args.sarif:
        args.sarif.write_text(
            json.dumps(ce.sarif_report(res), indent=2) + "\n",
            encoding="utf-8")

    if args.expect is not None:
        rules_found = {f.rule for f in res.findings}
        if rules_found == {args.expect}:
            print(f"cliquelint: seeded violation of {args.expect} caught "
                  f"({len(res.findings)} finding(s)) — rule is live")
            return 0
        print(f"cliquelint: FIXTURE FAILURE: expected only {args.expect}, "
              f"found {sorted(rules_found) or 'nothing'}", file=sys.stderr)
        return 1

    cache_note = ""
    if res.cache_hits or res.cache_misses:
        cache_note = (f" (cache: {res.cache_hits} hit, "
                      f"{res.cache_misses} parsed)")
    if res.active:
        print(f"cliquelint: {len(res.active)} violation(s) in "
              f"{res.files_scanned} file(s) "
              f"[frontend={res.frontend}]{cache_note}", file=sys.stderr)
        return 1
    print(f"cliquelint: {res.files_scanned} file(s) clean "
          f"[frontend={res.frontend}]{cache_note}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
