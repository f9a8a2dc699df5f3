#!/usr/bin/env python3
"""telemetry_report — pin scrape determinism and splice the telemetry table.

docs/TELEMETRY.md promises that canonical scrapes are byte-deterministic:
two `stream_driver --telemetry --prom` runs over the same stream must
produce identical `.ndjson` and `.prom` files. This tool makes that
promise a gate and turns the final scrape into the "Runtime telemetry"
table in EXPERIMENTS.md:

  1. generate a seeded churn workload with gen_stream (fixed parameters
     below, so the table is reproducible by construction);
  2. replay it twice through stream_driver with telemetry + Prometheus
     exposition enabled; byte-compare both output pairs — any diff is a
     determinism regression (a wall-clock instrument leaking into the
     canonical snapshot, an unordered container in the exposition path);
  3. validate the NDJSON against the schema-3 rules (validate_ndjson);
  4. render the final scrape's counters and gauges as a markdown table
     and splice it (through splice.py) between the GENERATED-TELEMETRY
     markers:

         <!-- BEGIN GENERATED-TELEMETRY: stream_driver -->
         ...
         <!-- END GENERATED-TELEMETRY -->

Usage:
  telemetry_report.py [--build-dir DIR] [--file EXPERIMENTS.md]
                      [--check] [--determinism-only]

  --build-dir         build tree holding tools/stream/{gen_stream,
                      stream_driver} (default: <repo>/build)
  --check             do not write; exit 1 with a diff if the spliced
                      table differs from a fresh regeneration (the docs
                      freshness gate)
  --determinism-only  run steps 1-3 and stop (the ctest determinism pin;
                      leaves EXPERIMENTS.md untouched)

Exit status: 0 clean/updated, 1 determinism or freshness violation,
2 usage errors (missing binaries, missing markers).
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import splice
import validate_ndjson
from splice import fail, run

# Fixed workload: small enough for a sub-second ctest, large enough that
# every service instrument moves (inserts, deletes, cancellations,
# recomputes, signature-cache churn).
GEN_ARGS = ["--n", "128", "--initial", "1024", "--churn", "1024"]
DRIVER_ARGS = ["--batch", "256"]


def scrape_twice(build_dir: Path, tmp: Path) -> Path:
    """Generate the workload, replay twice, pin byte-equality; return the
    first run's NDJSON path (validated)."""
    gen = splice.binary(build_dir, "tools", "stream", "gen_stream")
    driver = splice.binary(build_dir, "tools", "stream", "stream_driver")
    stream = tmp / "churn.stream"
    run([gen, stream, *GEN_ARGS])
    outputs = []
    for tag in ("a", "b"):
        nd, prom = tmp / f"{tag}.ndjson", tmp / f"{tag}.prom"
        run([driver, stream, *DRIVER_ARGS, "--telemetry", nd, "--prom", prom])
        outputs.append((nd, prom))
    (nd_a, prom_a), (nd_b, prom_b) = outputs
    for first, second, what in ((nd_a, nd_b, "NDJSON scrape stream"),
                                (prom_a, prom_b, "Prometheus exposition")):
        if first.read_bytes() != second.read_bytes():
            fail(f"{what} differs between two identical runs — canonical "
                 "snapshots are no longer deterministic (wall data leaking "
                 "into snapshot(), or unordered exposition)", 1)
    problems = validate_ndjson.validate_file(nd_a)
    if problems:
        for p in problems:
            print(f"telemetry_report: {p}", file=sys.stderr)
        fail("scrape stream violates the schema-3 rules", 1)
    return nd_a


def render_table(ndjson: Path) -> list[str]:
    final = json.loads(ndjson.read_text(encoding="utf-8").splitlines()[-1])
    scrapes = final["scrape"] + 1
    rows = [f"| `{name}` | counter | {value} |"
            for name, value in sorted(final["counters"].items())]
    rows += [f"| `{name}` | gauge | {value} |"
             for name, value in sorted(final["gauges"].items())]
    rows += [f"| `{name}` | histogram | count {h['count']}, sum {h['sum']} |"
             for name, h in sorted(final["histograms"].items())]
    return [
        f"Final canonical scrape (scrape {scrapes - 1} of {scrapes}; "
        "two runs byte-identical — DETERMINISTIC):",
        "",
        "| instrument | kind | value |",
        "|---|---|---|",
        *rows,
    ]


def main(argv: list[str]) -> int:
    parser = splice.arg_parser(
        __doc__, "build tree holding tools/stream/{gen_stream,stream_driver}")
    parser.add_argument("--determinism-only", action="store_true",
                        help="pin determinism only; leave the file alone")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmpdir:
        tmp = Path(tmpdir)
        ndjson = scrape_twice(args.build_dir, tmp)
        if args.determinism_only:
            print("telemetry_report: two runs byte-identical, schema-3 "
                  "valid (determinism pin holds)")
            return 0
        table = render_table(ndjson)
    return splice.splice(args.file, "TELEMETRY", {"stream_driver": table},
                         args.check)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
