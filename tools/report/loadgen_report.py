#!/usr/bin/env python3
"""loadgen_report — pin loadgen determinism and splice the SLO table.

docs/TELEMETRY.md promises that the multi-tenant load harness is
deterministic where it claims to be: two identically-seeded `loadgen` runs
must produce byte-identical canonical flight-recorder dumps and per-tenant
SLO tables, even though the thread interleaving (and therefore every wall
latency) differs. This tool makes that promise a gate and turns the table
into the "Multi-tenant SLOs" section of EXPERIMENTS.md:

  1. run the pinned workload below twice (4 tenants x 2 streams x 1250
     requests — the acceptance floor of 10k requests), capturing the
     canonical events dump, the SLO table, the operational events dump,
     and the watchdog scrape stream;
  2. byte-compare the canonical dump and the table across both runs — any
     diff is a determinism regression (a wall or interleaving-dependent
     quantity leaking into a canonical artifact);
  3. validate the dumps against the schema-4 rules and the scrape stream
     against the schema-3 rules (validate_ndjson);
  4. splice the table (through splice.py) between the GENERATED-LOADGEN
     markers:

         <!-- BEGIN GENERATED-LOADGEN: loadgen -->
         ...
         <!-- END GENERATED-LOADGEN -->

Usage:
  loadgen_report.py [--build-dir DIR] [--file EXPERIMENTS.md]
                    [--check] [--determinism-only]

  --build-dir         build tree holding tools/loadgen/loadgen
                      (default: <repo>/build)
  --check             do not write; exit 1 with a diff if the spliced
                      table differs from a fresh regeneration (the docs
                      freshness gate)
  --determinism-only  run steps 1-3 and stop (the ctest determinism pin;
                      leaves EXPERIMENTS.md untouched)

Exit status: 0 clean/updated, 1 determinism or freshness violation,
2 usage errors (missing binaries, missing markers).
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import splice
import validate_ndjson
from splice import fail, run

# Pinned workload: the acceptance-floor run (>= 4 tenants, >= 2 streams
# each, >= 10k total requests), small enough for a CI-friendly ctest.
LOADGEN_ARGS = ["--n", "128", "--tenants", "4", "--streams", "2",
                "--requests", "1250", "--seed", "42", "--batch", "8"]


def run_twice(build_dir: Path, tmp: Path) -> Path:
    """Run the pinned workload twice, pin byte-equality of the canonical
    artifacts, validate the NDJSON outputs; return the table path."""
    loadgen = splice.binary(build_dir, "tools", "loadgen", "loadgen")
    outputs = []
    for tag in ("a", "b"):
        canon = tmp / f"{tag}.canonical.ndjson"
        table = tmp / f"{tag}.table.md"
        events = tmp / f"{tag}.events.ndjson"
        scrapes = tmp / f"{tag}.scrapes.ndjson"
        run([loadgen, *LOADGEN_ARGS, "--canonical-events", canon,
             "--table", table, "--events", events, "--scrapes", scrapes])
        outputs.append((canon, table, events, scrapes))
    (canon_a, table_a, events_a, scrapes_a), (canon_b, table_b, _, _) = \
        outputs
    for first, second, what in (
            (canon_a, canon_b, "canonical flight-recorder dump"),
            (table_a, table_b, "per-tenant SLO table")):
        if first.read_bytes() != second.read_bytes():
            fail(f"{what} differs between two identical runs — an "
                 "interleaving-dependent quantity is leaking into a "
                 "canonical artifact (wall latency, global seq, or a "
                 "race-dependent result value)", 1)
    problems = []
    for path in (canon_a, events_a, scrapes_a):
        problems.extend(validate_ndjson.validate_file(path))
    if problems:
        for p in problems:
            print(f"loadgen_report: {p}", file=sys.stderr)
        fail("loadgen output violates the schema rules", 1)
    return table_a


def render_block(table: Path) -> list[str]:
    n, tenants, streams, requests = (LOADGEN_ARGS[i] for i in (1, 3, 5, 7))
    total = int(tenants) * int(streams) * int(requests)
    return [
        f"Seeded open-loop run: {tenants} tenants x {streams} streams x "
        f"{requests} requests ({total} total) over n={n}, seed 42; two "
        "runs byte-identical — DETERMINISTIC. `units` is the "
        "deterministic request-cost histogram (ingest = updates "
        "presented, query = 1) as log2-bucket `[lo, hi]` intervals; wall "
        "p50/p99/QPS are real measurements and stay on loadgen stdout.",
        "",
        *table.read_text(encoding="utf-8").splitlines(),
    ]


def main(argv: list[str]) -> int:
    parser = splice.arg_parser(__doc__,
                               "build tree holding tools/loadgen/loadgen")
    parser.add_argument("--determinism-only", action="store_true",
                        help="pin determinism only; leave the file alone")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmpdir:
        tmp = Path(tmpdir)
        table = run_twice(args.build_dir, tmp)
        if args.determinism_only:
            print("loadgen_report: two runs byte-identical, schema-3/4 "
                  "valid (determinism pin holds)")
            return 0
        block = render_block(table)
    return splice.splice(args.file, "LOADGEN", {"loadgen": block},
                         args.check)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
