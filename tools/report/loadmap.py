#!/usr/bin/env python3
"""loadmap — render congestion-profile heatmaps and splice EXPERIMENTS.md.

Runs the quickstart example with the congestion profiler attached
(CLIQUE_LOAD + CLIQUE_LOAD_LINKS — see examples/quickstart.cpp and
docs/TRACING.md schema 2), parses the schema-2 NDJSON it writes, and
renders:

  - a per-scope load table (sent/received skew, peak link occupancy,
    bandwidth utilization) for the top-level algorithm phases;
  - an ASCII per-node load strip (sent and received messages per node,
    bucketed) showing where the traffic concentrates;
  - an ASCII link-matrix heatmap (senders x receivers, bucketed) — the
    per-link view behind the paper's O(log n)-bits-per-link budget.

The rendered markdown fills the EXPERIMENTS.md block

    <!-- BEGIN GENERATED-LOAD: quickstart -->
    <!-- END GENERATED-LOAD -->

through splice.py, which owns the marker grammar and the `--check`
contract. The run is seeded and the exporter is byte-deterministic, so
regeneration is stable and `--check` is a CI freshness gate.

Usage:
  loadmap.py [--build-dir DIR] [--file EXPERIMENTS.md] [--n N] [--check]

Exit status: 0 clean/updated, 1 stale or quickstart failure, 2 usage.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

import splice
from splice import fail

SHADES = " .:-=+*#%@"


def run_quickstart(binary: Path, n: int, out: Path) -> None:
    env = dict(os.environ)
    env["CLIQUE_LOAD"] = str(out)
    env["CLIQUE_LOAD_LINKS"] = "1"
    env.pop("CLIQUE_TRACE", None)
    splice.run([binary, n, "2", "42"], env=env, cwd=out.parent)


def parse_ndjson(path: Path) -> dict:
    records = {"scopes": [], "loads": []}
    for line in path.read_text(encoding="utf-8").splitlines():
        r = json.loads(line)
        if r.get("type") == "trace":
            records["header"] = r
        elif r.get("type") == "load_summary":
            records["summary"] = r
        elif r.get("type") == "scope":
            records["scopes"].append(r)
        elif r.get("type") == "load":
            records["loads"].append(r)
        elif r.get("type") == "link_matrix":
            records["matrix"] = r
    for key in ("header", "summary", "matrix"):
        if key not in records:
            fail(f"{path.name}: no {key} record — not a schema-2 export "
                 "with link tracking?", 1)
    if records["header"].get("schema") != 2:
        fail(f"{path.name}: schema {records['header'].get('schema')}, "
             "expected 2", 1)
    return records


def bucket(values: list[int], buckets: int) -> list[int]:
    """Sum `values` into `buckets` contiguous groups."""
    size = max(1, (len(values) + buckets - 1) // buckets)
    return [sum(values[i:i + size]) for i in range(0, len(values), size)]


def shade_row(values: list[int], peak: int) -> str:
    if peak <= 0:
        return SHADES[0] * len(values)
    out = []
    for v in values:
        idx = 0 if v <= 0 else 1 + (v * (len(SHADES) - 2)) // peak
        out.append(SHADES[min(idx, len(SHADES) - 1)])
    return "".join(out)


def render(records: dict, n: int) -> list[str]:
    summary = records["summary"]
    matrix = records["matrix"]
    rows = matrix["rows"]
    lines: list[str] = []

    lines.append(f"Quickstart GC run (`n={n}`, 2 components, seed 42), "
                 "congestion profile (docs/TRACING.md schema 2). "
                 f"Total: {summary['sent_messages']} messages, "
                 f"{summary['sent_words']} words, peak link occupancy "
                 f"{summary['max_link']} (budget {summary['budget']}), "
                 f"bandwidth utilization {summary['util']:.2%}.")
    lines.append("")

    # Per-scope skew table: top-level phases only (the deep per-iteration
    # scopes repeat the same shape and would drown the table).
    by_seq = {s["seq"]: s for s in records["scopes"]}
    lines += ["| scope | sent max | sent mean | sent p99 | imbalance | "
              "peak link | util |",
              "|---|---|---|---|---|---|---|"]
    for load in records["loads"]:
        scope = by_seq.get(load["seq"], {})
        if scope.get("depth", 0) > 1:
            continue
        lines.append(
            f"| `{load['path']}` | {load['sent_max']} | "
            f"{load['sent_mean']:.1f} | {load['sent_p99']} | "
            f"{load['sent_imbalance']:.2f} | {load['peak_link']} | "
            f"{load['util']:.2%} |")
    lines.append("")

    # Per-node strips: node-bucketed sent/received message counts.
    sent = [sum(row) for row in rows]
    recv = [sum(rows[u][v] for u in range(len(rows)))
            for v in range(len(rows))]
    strip_buckets = min(64, n)
    sent_b = bucket(sent, strip_buckets)
    recv_b = bucket(recv, strip_buckets)
    peak = max(max(sent_b, default=0), max(recv_b, default=0))
    lines += ["Per-node load (messages per node bucket, `.` low .. `@` "
              "high):", "", "```",
              f"sent {shade_row(sent_b, peak)}",
              f"recv {shade_row(recv_b, peak)}",
              "```", ""]

    # Link heatmap: sender (rows) x receiver (columns), bucketed square.
    side = min(16, n)
    grid = [bucket(row, side) for row in rows]
    grid = [[sum(col) for col in zip(*grid[i:i + max(1, n // side)])]
            for i in range(0, n, max(1, n // side))]
    cell_peak = max((max(r) for r in grid), default=0)
    lines += [f"Link heatmap ({side}x{side} buckets of the {n}x{n} "
              "sender x receiver matrix; senders run top to bottom):", "",
              "```"]
    for row in grid:
        lines.append(shade_row(row, cell_peak))
    lines += ["```"]
    return lines


def main(argv: list[str]) -> int:
    parser = splice.arg_parser(__doc__,
                               "build tree with the quickstart binary")
    parser.add_argument("--n", type=int, default=64,
                        help="clique size for the profiled run (default 64; "
                             "the link matrix is O(n^2))")
    args = parser.parse_args(argv)

    binary = splice.binary(args.build_dir, "examples", "quickstart")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "load.ndjson"
        print(f"loadmap: running quickstart (n={args.n}) ...")
        run_quickstart(binary, args.n, out)
        records = parse_ndjson(out)
    return splice.splice(args.file, "LOAD",
                         {"quickstart": render(records, args.n)}, args.check)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
