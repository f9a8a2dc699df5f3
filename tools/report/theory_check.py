#!/usr/bin/env python3
"""theory_check — evaluate the theorem-bound registry against the sweep.

bench/baselines/bounds.json registers, per theorem, an envelope
`c * f(n, m, k)` for one measured quantity of the conformance sweep
(tools/sweep/run_sweep.py writes one schema-2 NDJSON trace per grid point,
each carrying "bound" records aggregated per theorem tag — docs/TRACING.md).
This tool:

  1. evaluates every envelope at every matching grid point and FAILS when a
     measurement falls outside it (above an upper bound, below a lower one);
  2. fits the observed leading constant (the worst-case measured/f ratio)
     and FAILS when a committed upper-bound constant is looser than 2x the
     observed fit (constant drift: the envelope would no longer notice a
     2x cost regression) — lower bounds skip the drift check, laptop-scale
     runs clear them by orders of magnitude;
  3. renders one "Theory conformance" table per theorem and splices it into
     EXPERIMENTS.md (through splice.py) between marker comments:

         <!-- BEGIN GENERATED-BOUNDS: <section> -->
         ... machine-generated table ...
         <!-- END GENERATED-BOUNDS -->

Everything derives from the deterministic sweep, so regeneration is
byte-identical run-to-run; `--check` turns that into the docs_bounds_fresh
ctest and `--verify-only` (no file touched) into theory_conformance.

Usage:
  theory_check.py [--build-dir DIR] [--sweep-dir DIR] [--bounds FILE]
                  [--file EXPERIMENTS.md] [--check | --verify-only]

Exit status: 0 clean/updated, 1 bound violated / constant drift / stale
tables, 2 usage or registry errors.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import splice
from splice import fail

# The only names an `f` formula may use. Logs floor at 1 so tiny n cannot
# produce zero/negative envelopes.
FORMULA_ENV = {
    "log2": lambda x: math.log2(max(2.0, float(x))),
    "loglog": lambda x: math.log2(max(2.0, math.log2(max(2.0, float(x))))),
    "logloglog": lambda x: math.log2(
        max(2.0, math.log2(max(2.0, math.log2(max(2.0, float(x))))))),
    "sqrt": math.sqrt,
    "ceil": math.ceil,
    "floor": math.floor,
    "min": min,
    "max": max,
}


def eval_formula(f: str, **values: float) -> float:
    env = dict(FORMULA_ENV)
    env.update(values)
    try:
        result = float(eval(f, {"__builtins__": {}}, env))  # noqa: S307
    except Exception as e:  # registry error, not a conformance failure
        fail(f"cannot evaluate f={f!r} with {values}: {e}")
    if not math.isfinite(result) or result <= 0:
        fail(f"f={f!r} evaluated to non-positive {result} at {values}")
    return result


def load_sweep(sweep_dir: Path) -> list[dict]:
    """One dict per grid point: the 'sweep' record plus its 'bound' records
    keyed by theorem tag."""
    if not (sweep_dir / "manifest.json").exists():
        fail(f"{sweep_dir}/manifest.json not found — run "
             f"`python3 tools/sweep/run_sweep.py` first (it drives the "
             f"ccq_sweep binary from the build tree)")
    points = []
    for path in sorted(sweep_dir.glob("*.ndjson")):
        point = {"file": path.name, "bounds": {}}
        for lineno, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), 1):
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                fail(f"{path}:{lineno}: invalid JSON: {e}")
            if rec.get("type") == "sweep":
                point["sweep"] = rec
            elif rec.get("type") == "bound":
                point["bounds"][rec["theorem"]] = rec
        if "sweep" not in point:
            fail(f"{path}: no \"sweep\" record — not a sweep point file")
        points.append(point)
    if not points:
        fail(f"{sweep_dir}: no .ndjson point files")
    return points


def measurements(bound: dict, points: list[dict]) -> list[tuple[str, float, float]]:
    """(label, measured, f_value) for every grid point the entry covers."""
    out = []
    for point in points:
        sweep = point["sweep"]
        if sweep.get("algo") != bound["algo"]:
            continue
        n, m = sweep["n"], sweep["m"]
        if bound["record"] == "sweep":
            source = sweep
        else:
            source = point["bounds"].get(bound.get("tag", bound["theorem"]))
            if source is None:
                fail(f"{point['file']}: no \"bound\" record tagged "
                     f"{bound.get('tag', bound['theorem'])!r} "
                     f"(needed by {bound['id']}) — sweep and registry "
                     f"disagree; rebuild and rerun tools/sweep/run_sweep.py")
            if source["instances"] == 0:
                fail(f"{point['file']}: bound tag {source['scope_prefix']!r} "
                     f"matched no trace scope — the instrumentation moved; "
                     f"update the tag in tools/sweep/sweep.cpp")
        if bound["metric"] not in source:
            fail(f"{point['file']}: metric {bound['metric']!r} missing for "
                 f"{bound['id']}")
        value = source[bound["metric"]]
        if bound.get("per_phase"):
            for k, phase_value in enumerate(value, start=1):
                f_val = eval_formula(bound["f"], n=n, m=m, k=k)
                out.append((f"n={n} k={k}", float(phase_value), f_val))
        else:
            f_val = eval_formula(bound["f"], n=n, m=m)
            out.append((f"n={n}" + (f" d={sweep['density']}"
                                    if bound["algo"] == "gc" else ""),
                        float(value), f_val))
    if not out:
        fail(f"{bound['id']}: no sweep point matched algo="
             f"{bound['algo']!r} — grid and registry disagree")
    return out


def check_bound(bound: dict) -> dict:
    """Evaluate one registry entry; returns the row dict (with 'problems')."""
    points = measurements(bound, CHECK_STATE["points"])
    c = float(bound["c"])
    upper = bound["direction"] == "upper"
    ratios = [value / f_val for _, value, f_val in points]
    observed = max(ratios) if upper else min(ratios)
    problems = []
    for (label, value, f_val), ratio in zip(points, ratios):
        envelope = c * f_val
        if upper and value > envelope * (1 + 1e-9):
            problems.append(
                f"{bound['id']} VIOLATED at {label}: measured {value:g} > "
                f"{c:g} * ({bound['f']}) = {envelope:g}")
        if not upper and value < envelope * (1 - 1e-9):
            problems.append(
                f"{bound['id']} VIOLATED at {label}: measured {value:g} < "
                f"{c:g} * ({bound['f']}) = {envelope:g}")
    if upper and bound.get("check_drift", True) and c > 2 * observed:
        problems.append(
            f"{bound['id']} DRIFT: committed c={c:g} is looser than 2x the "
            f"observed constant {observed:.4g} — tighten c in "
            f"bench/baselines/bounds.json (a 2x cost regression would no "
            f"longer trip this envelope)")
    headroom = (c / observed) if upper else (observed / c)
    return {"bound": bound, "points": len(points), "observed": observed,
            "headroom": headroom, "problems": problems}


CHECK_STATE: dict = {}


def fmt_g(x: float) -> str:
    return f"{x:.4g}"


def render_section(section: str, results: list[dict]) -> list[str]:
    lines = [
        f"| bound | metric | envelope | points | c | observed c | "
        f"headroom | status |",
        f"|---|---|---|---|---|---|---|---|",
    ]
    for r in results:
        b = r["bound"]
        rel = "<=" if b["direction"] == "upper" else ">="
        envelope = f"`{rel} c*({b['f']})`"
        lines.append(
            f"| {b['id']} | {b['metric']} | {envelope} | {r['points']} | "
            f"{fmt_g(float(b['c']))} | {fmt_g(r['observed'])} | "
            f"{fmt_g(r['headroom'])}x | within |")
    lines.append("")
    lines.append(f"_Generated by tools/report/theory_check.py from the "
                 f"committed sweep grid (tools/sweep); do not edit._")
    return lines


def main(argv: list[str]) -> int:
    parser = splice.arg_parser(__doc__, "build tree holding the sweep")
    parser.add_argument("--sweep-dir", type=Path, default=None,
                        help="sweep NDJSON dir (default: <build-dir>/sweep)")
    parser.add_argument("--bounds", type=Path,
                        default=splice.REPO / "bench/baselines/bounds.json")
    parser.add_argument("--verify-only", action="store_true",
                        help="evaluate envelopes only; never touch the file")
    args = parser.parse_args(argv)
    if args.check and args.verify_only:
        parser.error("--check and --verify-only are mutually exclusive")

    sweep_dir = args.sweep_dir or args.build_dir / "sweep"
    try:
        registry = json.loads(args.bounds.read_text(encoding="utf-8"))
    except FileNotFoundError:
        fail(f"{args.bounds} not found")
    except json.JSONDecodeError as e:
        fail(f"{args.bounds} is not valid JSON: {e}")
    bounds = registry.get("bounds", [])
    if not bounds:
        fail(f"{args.bounds}: empty 'bounds' list")

    CHECK_STATE["points"] = load_sweep(sweep_dir)

    sections: dict[str, list[dict]] = {}
    problems: list[str] = []
    for bound in bounds:
        for key in ("id", "theorem", "section", "algo", "record", "metric",
                    "f", "c", "direction"):
            if key not in bound:
                fail(f"{args.bounds}: entry {bound.get('id', '?')!r} "
                     f"missing key {key!r}")
        if bound["direction"] not in ("upper", "lower"):
            fail(f"{bound['id']}: direction must be 'upper' or 'lower'")
        result = check_bound(bound)
        problems.extend(result["problems"])
        sections.setdefault(bound["section"], []).append(result)

    for result in (r for rs in sections.values() for r in rs):
        b = result["bound"]
        status = "FAIL" if result["problems"] else "ok"
        print(f"  [{status:>4}] {b['id']:<24} {b['metric']:<16} "
              f"c={float(b['c']):g} observed={result['observed']:.4g} "
              f"headroom={result['headroom']:.3g}x "
              f"({result['points']} points)")
    if problems:
        for p in problems:
            print(f"theory_check: {p}", file=sys.stderr)
        print(f"theory_check: {len(problems)} conformance failure(s) "
              f"against {args.bounds}", file=sys.stderr)
        return 1
    print(f"theory_check: {len(bounds)} envelopes hold over "
          f"{len(CHECK_STATE['points'])} sweep points")

    if args.verify_only:
        return 0
    tables = {section: render_section(section, results)
              for section, results in sections.items()}
    return splice.splice(args.file, "BOUNDS", tables, args.check)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
