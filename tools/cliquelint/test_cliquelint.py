#!/usr/bin/env python3
"""Self-test for cliquelint v2: rules, cache and baseline.

Three independent checks, all in-process:

1. Seeded fixtures: every file under fixtures/bad/ must be flagged with
   exactly its expected rule (and at least the expected count); every file
   under fixtures/ok/ must stay silent. A linter whose rules silently stop
   firing is worse than no linter — the suite would keep certifying
   invariants nobody checks.

2. Cache: a second analysis through the same ModelCache must be all hits
   and produce byte-identical findings.

3. Baseline: a finding suppressed by fingerprint disappears from the
   active set; an expired suppression stops suppressing and is reported.

The production scan over src/ is the separate `cliquelint` ctest.
"""

from __future__ import annotations

import datetime
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from clast import engine as ce  # noqa: E402

FIXTURES = HERE / "fixtures"

# bad fixture (relative to fixtures/bad) -> (rule, minimum finding count)
EXPECTED_BAD = {
    "src/core/nondet_rand.cpp": ("CL001", 2),       # srand + rand
    "src/core/nondet_clock.cpp": ("CL001", 3),      # random_device, now, time
    "src/core/cl001_aliased_clock.cpp": ("CL001", 1),
    "src/core/metrics_mutation.cpp": ("CL002", 4),  # one per counter field
    "src/core/cl002_aliased_metrics.cpp": ("CL002", 3),
    "src/core/raw_packing.cpp": ("CL003", 2),       # memcpy + reinterpret_cast
    "src/core/includes_lowerbound.cpp": ("CL004", 1),
    "src/graph/includes_round_buffer.cpp": ("CL004", 1),
    "src/core/cycle_a.hpp": ("CL004", 1),           # include cycle anchor
    "src/core/trace_mutation.cpp": ("CL005", 6),    # one per Trace method
    "src/core/cl005_aliased_trace.cpp": ("CL005", 2),
    "src/core/load_mutation.cpp": ("CL006", 6),     # direct profile writes
    "src/core/cl006_aliased_load.cpp": ("CL006", 2),
    "src/core/cl007_unordered_send.cpp": ("CL007", 1),
    "src/core/cl007_unordered_accumulate.cpp": ("CL007", 1),
    "src/core/cl008_wide_payload.cpp": ("CL008", 3),
    "src/core/cl009_unnamed_raii.cpp": ("CL009", 4),
    "src/core/cl010_ref_capture.cpp": ("CL010", 2),
    "src/core/cl011_hot_registration.cpp": ("CL011", 2),
    "tools/stream/cl011_mutation_outside_src.cpp": ("CL011", 3),
    "tools/stream/cl012_emit_outside_src.cpp": ("CL012", 2),
}
# Zero-finding participants of multi-file fixtures (the cycle's anchor
# convention reports once, on the lexicographically smallest member).
HELPERS = {"src/core/cycle_b.hpp"}

def analyze_tree(root: Path, cache: ce.ModelCache | None = None,
                 baseline: ce.Baseline | None = None,
                 paths: tuple[str, ...] = ("src",)) -> ce.AnalysisResult:
    files = ce.collect_files(root, [p for p in paths
                                    if (root / p).is_dir()])
    return ce.analyze(root, files, cache=cache or ce.ModelCache(None),
                      baseline=baseline)


def check_fixtures(failures: list[str]) -> None:
    # CL011's mutation half only fires outside src/, so the fixture trees
    # carry a tools/ subtree alongside src/.
    res = analyze_tree(FIXTURES / "bad", paths=("src", "tools"))
    by_path: dict[str, list] = {}
    for f in res.findings:
        by_path.setdefault(f.path, []).append(f)
    for rel, (rule, min_count) in EXPECTED_BAD.items():
        got = by_path.get(rel)
        if not (FIXTURES / "bad" / rel).is_file():
            failures.append(f"{rel}: fixture file missing")
            continue
        if not got:
            failures.append(f"{rel}: expected {rule}, got no findings")
            continue
        rules = {f.rule for f in got}
        if rules != {rule}:
            failures.append(
                f"{rel}: expected only {rule}, got {sorted(rules)}")
        elif len(got) < min_count:
            failures.append(
                f"{rel}: expected >= {min_count} {rule} findings, "
                f"got {len(got)}")
    for rel, got in by_path.items():
        if rel not in EXPECTED_BAD and got:
            failures.append(
                f"fixtures/bad/{rel}: unexpected findings "
                f"({[str(f) for f in got]}); add it to EXPECTED_BAD")
    for fm in res.models:
        if fm.path not in EXPECTED_BAD and fm.path not in HELPERS:
            failures.append(f"fixtures/bad/{fm.path}: unexpected fixture, "
                            "add it to EXPECTED_BAD or HELPERS")

    ok = analyze_tree(FIXTURES / "ok", paths=("src", "tools"))
    if not ok.models:
        failures.append("fixtures/ok: no fixtures scanned")
    for f in ok.findings:
        failures.append(f"false positive in fixtures/ok/{f}")


def check_cache(failures: list[str]) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        cache_path = Path(tmp) / "cache.json"
        first = analyze_tree(FIXTURES / "bad", ce.ModelCache(cache_path))
        if first.cache_hits != 0:
            failures.append("cache: cold run reported hits")
        second = analyze_tree(FIXTURES / "bad", ce.ModelCache(cache_path))
        if second.cache_misses != 0:
            failures.append(
                f"cache: warm run re-parsed {second.cache_misses} file(s)")
        a = [str(f) for f in first.findings]
        b = [str(f) for f in second.findings]
        if a != b:
            failures.append("cache: warm findings differ from cold findings")


def check_baseline(failures: list[str]) -> None:
    res = analyze_tree(FIXTURES / "bad")
    if not res.findings:
        failures.append("baseline: no findings to suppress")
        return
    target = res.findings[0]
    with tempfile.TemporaryDirectory() as tmp:
        future = (datetime.date.today() +
                  datetime.timedelta(days=30)).isoformat()
        past = (datetime.date.today() -
                datetime.timedelta(days=1)).isoformat()
        live = Path(tmp) / "baseline.json"
        live.write_text(json.dumps({"suppressions": [{
            "fingerprint": target.fingerprint, "rule": target.rule,
            "path": target.path, "reason": "selftest", "expires": future,
        }]}))
        r2 = analyze_tree(FIXTURES / "bad", baseline=ce.Baseline(live))
        sup = [f for f in r2.findings if f.suppressed]
        if len(sup) != 1 or sup[0].fingerprint != target.fingerprint:
            failures.append("baseline: live suppression did not apply")
        if len(r2.active) != len(res.findings) - 1:
            failures.append("baseline: active count wrong after suppression")

        expired = Path(tmp) / "expired.json"
        expired.write_text(json.dumps({"suppressions": [{
            "fingerprint": target.fingerprint, "rule": target.rule,
            "path": target.path, "reason": "selftest", "expires": past,
        }]}))
        b3 = ce.Baseline(expired)
        r3 = analyze_tree(FIXTURES / "bad", baseline=b3)
        if any(f.suppressed for f in r3.findings):
            failures.append("baseline: expired suppression still applied")
        if len(b3.expired) != 1:
            failures.append("baseline: expired entry not reported")


def main() -> int:
    failures: list[str] = []
    check_fixtures(failures)
    check_cache(failures)
    check_baseline(failures)
    if failures:
        print("cliquelint selftest FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"cliquelint selftest: {len(EXPECTED_BAD)} seeded fixtures "
          "caught, ok tree clean, cache warm-path exact, baseline "
          "suppression + expiry live")
    return 0


if __name__ == "__main__":
    sys.exit(main())
