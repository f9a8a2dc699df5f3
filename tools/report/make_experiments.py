#!/usr/bin/env python3
"""make_experiments — regenerate the measured tables in EXPERIMENTS.md.

Every bench binary mirrors each printed table as one NDJSON record when run
with `--json FILE` (see bench/bench_util.hpp). EXPERIMENTS.md embeds those
tables between marker comments:

    <!-- BEGIN GENERATED: <bench>:<table title> -->
    ... machine-generated markdown table ...
    <!-- END GENERATED -->

This tool runs the referenced benches, renders each record as a markdown
pipe table, and hands the tables to splice.py, which owns the marker
grammar, the write path and the `--check` contract. The measured numbers in
the narrative are therefore reproducible by construction — never
hand-edited. The benches are deterministic (seeded Rng, exact round
accounting), so regeneration is byte-identical run-to-run on one machine;
`--check` turns that into a CI/ctest gate.

Usage:
  make_experiments.py [--build-dir DIR] [--file EXPERIMENTS.md]
                      [--only bench_a,bench_b] [--check]

  --build-dir  where the bench binaries live (default: <repo>/build;
               binaries are expected at <build-dir>/bench/<name>)
  --only       restrict to these benches (comma-separated or repeated);
               blocks belonging to other benches are left untouched.
               Default: every bench referenced by a marker.
  --check      do not write; exit 1 with a diff if any regenerated block
               differs from what the file holds (the docs-consistency gate)

Exit status: 0 clean/updated, 1 check failed or a bench self-check failed,
2 usage/marker errors.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import splice
from splice import fail


def load_records(ndjson: Path) -> dict[str, tuple[list, list]]:
    """`<bench>:<title>` -> (columns, rows) for every table the bench
    printed."""
    records = {}
    for line in ndjson.read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        r = json.loads(line)
        records[f"{r['bench']}:{r['title']}"] = (r["columns"], r["rows"])
    return records


def render_table(columns: list[str], rows: list[list[str]]) -> list[str]:
    def cell(s: str) -> str:
        return s.replace("|", "\\|")
    out = ["| " + " | ".join(cell(c) for c in columns) + " |",
           "|" + "---|" * len(columns)]
    for r in rows:
        out.append("| " + " | ".join(cell(c) for c in r) + " |")
    return out


def main(argv: list[str]) -> int:
    parser = splice.arg_parser(__doc__, "build tree with bench binaries")
    parser.add_argument("--only", action="append", default=None,
                        metavar="BENCHES",
                        help="comma-separated bench names to regenerate")
    args = parser.parse_args(argv)

    blocks = [b for b in splice.parse(args.file) if b.kind == ""]
    if not blocks:
        fail(f"{args.file.name} has no GENERATED blocks")
    for b in blocks:
        if not b.key.partition(":")[2]:
            fail(f"{args.file}:{b.begin + 1}: GENERATED key {b.key!r} is "
                 "not <bench>:<table title>")
    marked = {b.key.partition(":")[0] for b in blocks}

    wanted = None
    if args.only:
        wanted = set()
        for chunk in args.only:
            wanted.update(b for b in chunk.split(",") if b)
        unknown = wanted - marked
        if unknown:
            fail(f"--only names without GENERATED blocks: {sorted(unknown)}")
    benches = sorted(marked if wanted is None else wanted)
    if not benches:
        fail("nothing to regenerate")

    records = {}
    with tempfile.TemporaryDirectory() as tmp:
        for bench in benches:
            out = Path(tmp) / f"{bench}.ndjson"
            print(f"make_experiments: running {bench} ...")
            splice.run([splice.binary(args.build_dir, "bench", bench),
                        "--json", out])
            records.update(load_records(out))

    bodies = {}
    for b in blocks:
        bench, _, title = b.key.partition(":")
        if bench not in benches:
            continue
        if b.key not in records:
            titles = sorted(k.partition(":")[2] for k in records
                            if k.startswith(bench + ":"))
            fail(f"{bench} produced no table titled '{title}'; "
                 f"available: {titles}", 1)
        bodies[b.key] = render_table(*records[b.key])

    # Never skip silently: name every block this invocation left alone and
    # the exact command that regenerates it, so a narrowed --only run can't
    # masquerade as a full refresh.
    for bench in sorted(marked - set(benches)):
        print(f"make_experiments: warning: {bench} block(s) left untouched "
              f"(not in --only) — regenerate with: python3 "
              f"tools/report/make_experiments.py --only {bench}",
              file=sys.stderr)
    # ... and the mirror direction: a bench table nothing splices is a
    # measurement the narrative silently omits.
    for key in sorted(set(records) - {b.key for b in blocks}):
        bench, _, title = key.partition(":")
        print(f"make_experiments: warning: {bench} emitted table '{title}' "
              f"with no GENERATED block in {args.file.name} — add "
              f"'{splice.begin_marker('', key)}' / "
              f"'{splice.end_marker('')}' markers to splice it",
              file=sys.stderr)

    return splice.splice(args.file, "", bodies, args.check,
                         partial=wanted is not None)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
