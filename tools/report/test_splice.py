#!/usr/bin/env python3
"""Selftest for splice.py, the one GENERATED-block parser and writer.

On temp files, with no build tree:

  - every malformed form (nested BEGIN, unterminated block, END without a
    BEGIN, END of another KIND, duplicate key, unknown KIND, malformed
    marker line, carriage return in a body, marker without a body, body
    without a marker) exits 2 and names the line (a body without a
    marker has no line, so it names its key);
  - a stale block makes `--check` exit 1 with a unified diff and the
    regenerate command;
  - write then `--check` exits 0, and a write with nothing to change
    leaves the file alone;
  - bytes outside the replaced bodies and blocks of other KINDs are
    untouched;
  - a binary found under a relative --build-dir still starts when run
    from another working directory;
  - end to end, theory_check.py (run against its seeded mini sweep)
    honours the same contract.

Run as ctest splice_selftest.
"""

from __future__ import annotations

import contextlib
import io
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import splice

HERE = Path(__file__).resolve().parent

# Non-ASCII prose, a CRLF line and a missing final newline: all of it sits
# outside the TELEMETRY body and must survive a splice byte for byte.
HEAD = ("# Borůvka ≥ 1\r\n"
        "<!-- BEGIN GENERATED: bench_x:table -->\n| a |\n"
        "<!-- END GENERATED -->\n"
        "<!-- BEGIN GENERATED-TELEMETRY: stream_driver -->\n")
TAIL = ("<!-- END GENERATED-TELEMETRY -->\n"
        "<!-- BEGIN GENERATED-LOAD: quickstart -->\nold load\n"
        "<!-- END GENERATED-LOAD -->\ntrailing prose")
DOC = HEAD + "old 1\nold 2\n" + TAIL
FRESH = {"stream_driver": ["new 1", "new 2", "new 3"]}


def call(fn, *args, **kwargs) -> tuple[int, str, str]:
    """(exit status, stdout, stderr) of an in-process splice call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = fn(*args, **kwargs)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


def main() -> int:
    problems: list[str] = []

    def expect(what: str, got: tuple[int, str, str], code: int,
               *needles: str) -> None:
        if got[0] != code:
            problems.append(f"{what}: exit {got[0]}, expected {code}\n"
                            f"{got[2]}")
        for needle in needles:
            if needle not in got[2]:
                problems.append(f"{what}: stderr lacks {needle!r}:\n"
                                f"{got[2]}")

    with tempfile.TemporaryDirectory() as tmp:
        doc = Path(tmp) / "EXPERIMENTS.md"
        tel = ("<!-- BEGIN GENERATED-TELEMETRY: stream_driver -->\n",
               "<!-- END GENERATED-TELEMETRY -->\n")
        malformed = {
            "nested": (tel[0] + tel[0].replace("stream_driver", "b")
                       + tel[1] + tel[1], 2),
            "unterminated": ("prose\n\n" + tel[0] + "body\n", 3),
            "END without BEGIN": ("prose\n" + tel[1], 2),
            "END of another KIND": (tel[0] + "<!-- END GENERATED-LOAD -->\n",
                                    2),
            "duplicate key": (tel[0] + tel[1] + "prose\n" + tel[0] + tel[1],
                              4),
            "unknown KIND": ("prose\n" + tel[0].replace("TELEMETRY",
                                                         "TELEMTRY")
                             + tel[1], 2),
            "malformed marker": ("<!-- BEGIN GENERATED-LOAD -->\n", 1),
            "carriage return in body": (tel[0] + "| a |\r\n" + tel[1], 2),
            "marker without body": (tel[0] + tel[1] + tel[0].replace(
                "stream_driver", "orphan") + tel[1], 3),
        }
        for what, (text, line) in malformed.items():
            doc.write_text(text, encoding="utf-8")
            expect(what, call(splice.splice, doc, "TELEMETRY",
                              {"stream_driver": ["x"]}, check=True),
                   2, f"{doc}:{line}:")
        doc.write_text(tel[0] + tel[1], encoding="utf-8")
        expect("body without marker",
               call(splice.splice, doc, "TELEMETRY",
                    {"stream_driver": ["x"], "ghost": ["y"]}, check=True),
               2, f"{doc}:", "GENERATED-TELEMETRY: ghost")

        doc.write_bytes(DOC.encode("utf-8"))
        expect("stale --check", call(splice.splice, doc, "TELEMETRY",
                                     FRESH, check=True),
               1, "--- ", "+++ ", "+new 3", "regenerate with: python3 ")
        if doc.read_bytes() != DOC.encode("utf-8"):
            problems.append("stale --check modified the file")

        expect("write", call(splice.splice, doc, "TELEMETRY", FRESH,
                             check=False), 0)
        want = HEAD + "new 1\nnew 2\nnew 3\n" + TAIL
        if doc.read_bytes() != want.encode("utf-8"):
            problems.append("write changed bytes outside the TELEMETRY "
                            f"body:\n{doc.read_bytes()!r}")
        expect("--check after write", call(splice.splice, doc, "TELEMETRY",
                                           FRESH, check=True), 0)
        os.utime(doc, ns=(0, 0))
        expect("no-op write", call(splice.splice, doc, "TELEMETRY", FRESH,
                                   check=False), 0)
        if doc.stat().st_mtime_ns != 0:
            problems.append("write mode rewrote an up-to-date file")

        expect("partial", call(splice.splice, doc, "", {}, check=True,
                               partial=True), 0)
        blocks = [(b.kind, b.key) for b in splice.parse(doc)]
        if blocks != [("", "bench_x:table"), ("TELEMETRY", "stream_driver"),
                      ("LOAD", "quickstart")]:
            problems.append(f"parse: unexpected blocks {blocks}")

        problems.extend(check_relative_build_dir(Path(tmp)))
        problems.extend(check_theory_cli(Path(tmp)))

    for p in problems:
        print(f"test_splice: FAIL: {p}", file=sys.stderr)
    if problems:
        return 1
    print("test_splice: malformed files exit 2 with file:line, stale "
          "--check exits 1 with a diff, write is byte-exact and idempotent")
    return 0


def check_relative_build_dir(tmp: Path) -> list[str]:
    """`--build-dir build` is relative to the caller's cwd, but loadmap
    runs its binary with cwd set to a temp dir."""
    exe = tmp / "bld" / "examples" / "quickstart"
    exe.parent.mkdir(parents=True)
    exe.write_text("#!/bin/sh\nexit 0\n", encoding="utf-8")
    exe.chmod(0o755)
    elsewhere = tmp / "elsewhere"
    elsewhere.mkdir()
    cwd = Path.cwd()
    os.chdir(tmp)
    try:
        path = splice.binary(Path("bld"), "examples", "quickstart")
    finally:
        os.chdir(cwd)
    got = call(splice.run, [path], cwd=elsewhere)
    if got[0] not in (0, None):
        return [f"binary() under a relative build dir gave {path}, which "
                f"does not run from another cwd:\n{got[2]}"]
    return []


def check_theory_cli(tmp: Path) -> list[str]:
    """The same contract through a real splicing tool's command line: the
    regenerate command a stale --check prints must itself fix the file."""
    doc = tmp / "bounds.md"
    doc.write_text("Borůvka\n<!-- BEGIN GENERATED-BOUNDS: T4 -->\nstale\n"
                   "<!-- END GENERATED-BOUNDS -->\n", encoding="utf-8")
    check = [sys.executable, str(HERE / "theory_check.py"), "--check",
             "--sweep-dir", str(HERE / "fixtures" / "mini_sweep"),
             "--bounds", str(HERE / "fixtures" / "bounds_ok.json"),
             "--file", str(doc)]
    stale = subprocess.run(check, capture_output=True, text=True)
    _, _, command = stale.stderr.rpartition("regenerate with: ")
    if stale.returncode != 1 or "+| FX-rounds |" not in stale.stderr or \
            not command.startswith("python3 "):
        return [f"theory_check --check on a stale file: exit "
                f"{stale.returncode}, expected 1 with a diff and the "
                f"regenerate command:\n{stale.stderr}"]
    argv = shlex.split(command)
    if "--check" in argv or str(doc) not in argv:
        return [f"regenerate command is not the --check run's: {command}"]
    for cmd in ([sys.executable, *argv[1:]], check):
        r = subprocess.run(cmd, capture_output=True, text=True)
        if r.returncode != 0:
            return [f"{shlex.join(cmd)}: exit {r.returncode}:\n{r.stderr}"]
    return []


if __name__ == "__main__":
    sys.exit(main())
