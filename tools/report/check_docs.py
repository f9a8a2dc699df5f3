#!/usr/bin/env python3
"""check_docs — keep docs/TRACING.md in sync with the instrumented code.

Two forward-direction gates, so you cannot add or rename an
instrumentation point without documenting it (the reverse direction —
stale EXPERIMENTS.md tables — is make_experiments.py --check):

  - scope names: every trace-scope name literal in src/ (both construction
    syntaxes: `TraceScope x{engine, "name"}` / `TraceScope x{trace,
    "name"}` and the deferred `opt.emplace(engine, "name")`) must appear
    in a code span (backticks) in docs/TRACING.md;
  - service scopes: every scope-name literal used under src/service/ must
    *additionally* appear in a code span in docs/SERVICE.md (the service
    contract documents its own observability surface, not just the global
    inventory);
  - NDJSON fields: every JSON key the exporter emits (extracted from the
    `"key":` string literals in src/clique/trace_export.cpp, schema 1 and
    schema 2 alike) must appear in docs/TRACING.md, either in backticks or
    inside a `"key":` example line;
  - theorem coverage: every theorem section named in
    bench/baselines/bounds.json must have a `GENERATED-BOUNDS` conformance
    table in EXPERIMENTS.md (theory_check.py keeps the table contents
    fresh; this gate keeps the registry from growing sections the report
    silently omits);
  - telemetry instruments: every instrument name registered in src/
    (counter/gauge/histogram/wall_histogram calls) must appear in a code
    span in docs/TELEMETRY.md — the instrument inventory is the scrape
    contract an operator builds dashboards against;
  - telemetry NDJSON keys: every schema-3 key src/telemetry/exposition.cpp
    emits must be documented in docs/TELEMETRY.md;
  - flight-recorder keys: every schema-4 key
    src/telemetry/flight_recorder.cpp emits (flight_event fields and the
    flight_dump trailer) must be documented in docs/TELEMETRY.md — the
    dump is what an operator reads during an incident, so an undocumented
    field is an undocumented clue;
  - watchdog rule kinds: every HealthRule::Kind enumerator declared in
    src/telemetry/watchdog.hpp must appear in a code span in
    docs/TELEMETRY.md (the rule vocabulary is the alerting contract).

Exit status: 0 in sync, 1 undocumented names/fields, 2 usage errors.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import splice

# `TraceScope x{engine, "seg"}` or `TraceScope x{trace_ptr, "seg", k}`.
CONSTRUCT_RE = re.compile(r'\bTraceScope\s+\w+\s*\{[^{}"]*"([^"]+)"')
# `std::optional<TraceScope> s; s.emplace(engine, "seg")`.
EMPLACE_RE = re.compile(r'\.emplace\(\s*engine\s*,\s*"([^"]+)"')
# Exporter key literals: `"\"messages\":"` in trace_export.cpp source reads
# `\"key\":` — match the escaped quotes around the key name.
EXPORT_KEY_RE = re.compile(r'\\"(\w+)\\":')
# Instrument registrations wrap lines (name + help rarely fit on one), so
# this matches across the newline after the open paren.
INSTRUMENT_RE = re.compile(
    r'\.(?:counter|gauge|histogram|wall_histogram)\(\s*"([^"]+)"')


def inline_code_spans(md_text: str) -> set[str]:
    """Contents of every inline `code` span, fenced blocks excluded.

    A ``` fence contributes an odd number of backticks, so pairing single
    backticks across the raw text desynchronizes after the first fence —
    strip fenced blocks before extracting spans.
    """
    prose = re.sub(r"^```.*?^```", "", md_text,
                   flags=re.MULTILINE | re.DOTALL)
    return set(re.findall(r"`([^`\n]+)`", prose))


def scope_names(src: Path) -> dict[str, list[str]]:
    """Map scope-name literal -> list of 'file:line' uses."""
    names: dict[str, list[str]] = {}
    for path in sorted(src.rglob("*.cpp")) + sorted(src.rglob("*.hpp")):
        rel = path.relative_to(src.parent)
        for lineno, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), 1):
            for pattern in (CONSTRUCT_RE, EMPLACE_RE):
                for m in pattern.finditer(line):
                    names.setdefault(m.group(1), []).append(
                        f"{rel}:{lineno}")
    return names


def instrument_names(src: Path) -> dict[str, list[str]]:
    """Map registered instrument name -> list of 'file:line' uses."""
    names: dict[str, list[str]] = {}
    for path in sorted(src.rglob("*.cpp")) + sorted(src.rglob("*.hpp")):
        rel = path.relative_to(src.parent)
        text = path.read_text(encoding="utf-8")
        for m in INSTRUMENT_RE.finditer(text):
            lineno = text.count("\n", 0, m.start()) + 1
            names.setdefault(m.group(1), []).append(f"{rel}:{lineno}")
    return names


def main() -> int:
    repo = Path(__file__).resolve().parents[2]
    src = repo / "src"
    tracing_md = repo / "docs" / "TRACING.md"
    if not tracing_md.is_file():
        print(f"check_docs: missing {tracing_md}", file=sys.stderr)
        return 1

    names = scope_names(src)
    if not names:
        print("check_docs: no TraceScope literals found under src/ "
              "(extraction regexes broken?)", file=sys.stderr)
        return 2

    md_text = tracing_md.read_text(encoding="utf-8")
    documented = inline_code_spans(md_text)
    missing = {n: uses for n, uses in names.items() if n not in documented}
    if missing:
        print("check_docs: trace scope names used in src/ but not "
              "documented in docs/TRACING.md:", file=sys.stderr)
        for name in sorted(missing):
            print(f"  \"{name}\"  ({', '.join(missing[name])})",
                  file=sys.stderr)
        print("add each name (in backticks) to the scope inventory in "
              "docs/TRACING.md", file=sys.stderr)
        return 1

    # The service page must document the service's own scope literals too:
    # SERVICE.md is the contract a service consumer reads, and its
    # observability section would silently rot if only TRACING.md's global
    # inventory were checked.
    service_md = repo / "docs" / "SERVICE.md"
    service_names = {n: uses for n, uses in names.items()
                     if any(u.startswith("src/service/") for u in uses)}
    if service_names:
        if not service_md.is_file():
            print(f"check_docs: missing {service_md} (src/service/ uses "
                  "trace scopes that must be documented there)",
                  file=sys.stderr)
            return 1
        service_documented = inline_code_spans(
            service_md.read_text(encoding="utf-8"))
        service_missing = {n: uses for n, uses in service_names.items()
                           if n not in service_documented}
        if service_missing:
            print("check_docs: trace scope names used in src/service/ but "
                  "not documented in docs/SERVICE.md:", file=sys.stderr)
            for name in sorted(service_missing):
                print(f"  \"{name}\"  ({', '.join(service_missing[name])})",
                      file=sys.stderr)
            print("add each name (in backticks) to the observability "
                  "section of docs/SERVICE.md", file=sys.stderr)
            return 1

    exporter = repo / "src" / "clique" / "trace_export.cpp"
    emitted = set(EXPORT_KEY_RE.findall(
        exporter.read_text(encoding="utf-8")))
    if not emitted:
        print("check_docs: no NDJSON keys found in trace_export.cpp "
              "(extraction regex broken?)", file=sys.stderr)
        return 2
    # A key counts as documented in backticks or in a `"key":` example.
    documented_keys = documented | set(re.findall(r'"(\w+)":', md_text))
    undocumented = sorted(emitted - documented_keys)
    if undocumented:
        print("check_docs: NDJSON keys emitted by trace_export.cpp but not "
              "documented in docs/TRACING.md:", file=sys.stderr)
        for key in undocumented:
            print(f"  \"{key}\"", file=sys.stderr)
        print("document each field in the schema sections of "
              "docs/TRACING.md", file=sys.stderr)
        return 1

    bounds_json = repo / "bench" / "baselines" / "bounds.json"
    experiments_md = repo / "EXPERIMENTS.md"
    try:
        registry = json.loads(bounds_json.read_text(encoding="utf-8"))
    except FileNotFoundError:
        print(f"check_docs: missing {bounds_json}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as e:
        print(f"check_docs: {bounds_json} is not valid JSON: {e}",
              file=sys.stderr)
        return 1
    registered = {b["section"] for b in registry.get("bounds", [])}
    if not registered:
        print(f"check_docs: {bounds_json} registers no bounds "
              "(empty registry?)", file=sys.stderr)
        return 2
    marked = {b.key for b in splice.parse(experiments_md)
              if b.kind == "BOUNDS"}
    unmarked = sorted(registered - marked)
    if unmarked:
        print("check_docs: theorem section(s) in bench/baselines/"
              "bounds.json without a GENERATED-BOUNDS table in "
              "EXPERIMENTS.md:", file=sys.stderr)
        for section in unmarked:
            print(f"  {section}", file=sys.stderr)
        print(f"add a `{splice.begin_marker('BOUNDS', '<section>')}` "
              "block and rerun tools/report/theory_check.py",
              file=sys.stderr)
        return 1

    # Telemetry: the instrument inventory and the schema-3 key set are the
    # live-scrape contract; both live in docs/TELEMETRY.md.
    telemetry_md = repo / "docs" / "TELEMETRY.md"
    instruments = instrument_names(src)
    if not instruments:
        print("check_docs: no instrument registrations found under src/ "
              "(extraction regex broken?)", file=sys.stderr)
        return 2
    if not telemetry_md.is_file():
        print(f"check_docs: missing {telemetry_md}", file=sys.stderr)
        return 1
    telemetry_text = telemetry_md.read_text(encoding="utf-8")
    telemetry_documented = inline_code_spans(telemetry_text)
    inst_missing = {n: uses for n, uses in instruments.items()
                    if n not in telemetry_documented}
    if inst_missing:
        print("check_docs: instruments registered in src/ but not "
              "documented in docs/TELEMETRY.md:", file=sys.stderr)
        for name in sorted(inst_missing):
            print(f"  \"{name}\"  ({', '.join(inst_missing[name])})",
                  file=sys.stderr)
        print("add each name (in backticks) to the instrument inventory "
              "in docs/TELEMETRY.md", file=sys.stderr)
        return 1

    telemetry_exporter = repo / "src" / "telemetry" / "exposition.cpp"
    telemetry_keys = set(EXPORT_KEY_RE.findall(
        telemetry_exporter.read_text(encoding="utf-8")))
    if not telemetry_keys:
        print("check_docs: no schema-3 keys found in "
              "telemetry/exposition.cpp (extraction regex broken?)",
              file=sys.stderr)
        return 2
    telemetry_key_docs = telemetry_documented | set(
        re.findall(r'"(\w+)":', telemetry_text))
    telemetry_undocumented = sorted(telemetry_keys - telemetry_key_docs)
    if telemetry_undocumented:
        print("check_docs: schema-3 NDJSON keys emitted by "
              "telemetry/exposition.cpp but not documented in "
              "docs/TELEMETRY.md:", file=sys.stderr)
        for key in telemetry_undocumented:
            print(f"  \"{key}\"", file=sys.stderr)
        print("document each key in the NDJSON section of "
              "docs/TELEMETRY.md", file=sys.stderr)
        return 1

    # Flight recorder: the schema-4 dump is the incident-time artifact;
    # every emitted key must be readable against the TELEMETRY.md legend.
    flight_exporter = repo / "src" / "telemetry" / "flight_recorder.cpp"
    flight_keys = set(EXPORT_KEY_RE.findall(
        flight_exporter.read_text(encoding="utf-8")))
    if not flight_keys:
        print("check_docs: no schema-4 keys found in "
              "telemetry/flight_recorder.cpp (extraction regex broken?)",
              file=sys.stderr)
        return 2
    flight_undocumented = sorted(flight_keys - telemetry_key_docs)
    if flight_undocumented:
        print("check_docs: schema-4 NDJSON keys emitted by "
              "telemetry/flight_recorder.cpp but not documented in "
              "docs/TELEMETRY.md:", file=sys.stderr)
        for key in flight_undocumented:
            print(f"  \"{key}\"", file=sys.stderr)
        print("document each key in the flight-recorder section of "
              "docs/TELEMETRY.md", file=sys.stderr)
        return 1

    # Watchdog rule kinds: the enumerator list in watchdog.hpp is the
    # full alerting vocabulary; a kind missing from the docs is a rule an
    # operator cannot write.
    watchdog_hpp = repo / "src" / "telemetry" / "watchdog.hpp"
    kind_block = re.search(r"enum class Kind[^{]*\{([^}]*)\}",
                           watchdog_hpp.read_text(encoding="utf-8"))
    rule_kinds = (set(re.findall(r"\bk[A-Z]\w*", kind_block.group(1)))
                  if kind_block else set())
    if not rule_kinds:
        print("check_docs: no HealthRule::Kind enumerators found in "
              "telemetry/watchdog.hpp (extraction regex broken?)",
              file=sys.stderr)
        return 2
    kinds_missing = sorted(rule_kinds - telemetry_documented)
    if kinds_missing:
        print("check_docs: HealthRule::Kind enumerator(s) declared in "
              "telemetry/watchdog.hpp but not documented in "
              "docs/TELEMETRY.md:", file=sys.stderr)
        for kind in kinds_missing:
            print(f"  {kind}", file=sys.stderr)
        print("add each enumerator (in backticks) to the watchdog "
              "section of docs/TELEMETRY.md", file=sys.stderr)
        return 1

    print(f"check_docs: {len(names)} trace scope name(s), "
          f"{len(emitted)} NDJSON field(s), {len(registered)} theorem "
          f"section(s), {len(instruments)} telemetry instrument(s), "
          f"{len(telemetry_keys)} schema-3 key(s), {len(flight_keys)} "
          f"schema-4 key(s), and {len(rule_kinds)} watchdog rule kind(s) "
          "all documented")
    return 0


if __name__ == "__main__":
    sys.exit(main())
