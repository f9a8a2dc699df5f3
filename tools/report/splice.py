"""splice — the one parser and writer for GENERATED blocks in EXPERIMENTS.md.

Every machine-generated table in EXPERIMENTS.md sits between a pair of
marker comments, each on its own line:

    <!-- BEGIN GENERATED[-KIND]: <key> -->
    ... body, owned by the tool that fills KIND ...
    <!-- END GENERATED[-KIND] -->

KIND names the tool that fills the block: the bare form (no KIND) is
make_experiments.py with key `<bench>:<table title>`; LOAD is loadmap.py,
BOUNDS is theory_check.py, TELEMETRY is telemetry_report.py and LOADGEN is
loadgen_report.py. A tool renders `{key: body lines}` for its KIND and
hands them to `splice()`; this module owns everything else:

  - strict parsing: a nested BEGIN, an unterminated block, an END that
    closes nothing (or a block of another KIND), a key that appears twice
    within one KIND, a KIND no tool fills, a marker-like line that does
    not match the grammar and a carriage return inside a body (bodies
    are written with LF) all exit 2 naming `file:line`;
  - completeness: a marker with no rendered body, or a body with no
    marker, exits 2 (a narrowed run passes `partial=True` to leave the
    markers it did not render alone);
  - one `--check` contract: a stale file exits 1 with a unified diff and
    the exact command that regenerates it; otherwise 0. Write mode writes
    UTF-8, and only when a body changed. Bytes outside the replaced
    bodies are never touched.
"""

from __future__ import annotations

import argparse
import difflib
import re
import shlex
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]

_BEGIN_RE = re.compile(r"<!-- BEGIN GENERATED(?:-(?P<kind>[A-Z0-9]+))?: "
                       r"(?P<key>\S(?:.*\S)?) -->")
_END_RE = re.compile(r"<!-- END GENERATED(?:-(?P<kind>[A-Z0-9]+))? -->")
_MARKER_PREFIXES = ("<!-- BEGIN GENERATED", "<!-- END GENERATED")
# The KINDs some tool fills; "" is the bare GENERATED form.
KINDS = ("", "LOAD", "BOUNDS", "TELEMETRY", "LOADGEN")


@dataclass(frozen=True)
class Block:
    kind: str   # "" for the bare GENERATED form
    key: str
    begin: int  # 0-based index of the BEGIN marker line
    end: int    # 0-based index of the END marker line


def _prog() -> str:
    return Path(sys.argv[0]).stem


def fail(msg: str, code: int = 2) -> None:
    print(f"{_prog()}: {msg}", file=sys.stderr)
    sys.exit(code)


def run(cmd: list, **kwargs) -> None:
    """Run one binary quietly; exit 1 with its stderr if it fails."""
    result = subprocess.run([str(c) for c in cmd], stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True, **kwargs)
    if result.returncode != 0:
        fail(f"{Path(cmd[0]).name} exited {result.returncode}\n"
             f"{result.stderr}", 1)


def binary(build_dir: Path, *parts: str) -> Path:
    """Absolute path of a built binary; exit 2 with the build command if
    missing. Absolute, because `run` may start it with another cwd."""
    path = build_dir.resolve().joinpath(*parts)
    if not path.is_file():
        fail(f"{path} not found — build it with: cmake --build {build_dir} "
             f"--target {path.name}")
    return path


def arg_parser(doc: str, build_help: str) -> argparse.ArgumentParser:
    """The flags every splicing tool shares: --build-dir, --file, --check."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--build-dir", type=Path, default=REPO / "build",
                        help=f"{build_help} (default: <repo>/build)")
    parser.add_argument("--file", type=Path, default=REPO / "EXPERIMENTS.md",
                        help="file holding the GENERATED blocks "
                             "(default: <repo>/EXPERIMENTS.md)")
    parser.add_argument("--check", action="store_true",
                        help="do not write; exit 1 with a diff if any "
                             "block is stale")
    return parser


def _name(kind: str) -> str:
    return f"GENERATED-{kind}" if kind else "GENERATED"


def begin_marker(kind: str, key: str) -> str:
    return f"<!-- BEGIN {_name(kind)}: {key} -->"


def end_marker(kind: str) -> str:
    return f"<!-- END {_name(kind)} -->"


def _read(path: Path) -> str:
    if not path.is_file():
        fail(f"no such file: {path}")
    # Bytes, not read_text(): universal-newline decoding would rewrite the
    # line endings of everything outside the blocks.
    return path.read_bytes().decode("utf-8")


def _parse_lines(path: Path, lines: list[str]) -> list[Block]:
    blocks: list[Block] = []
    first_line: dict[tuple[str, str], int] = {}
    open_kind = open_key = None
    open_at = 0
    for i, raw in enumerate(lines):
        line = raw.strip()
        where = f"{path}:{i + 1}"
        if not line.startswith(_MARKER_PREFIXES):
            if open_kind is not None and "\r" in raw:
                fail(f"{where}: carriage return inside "
                     f"{begin_marker(open_kind, open_key)} — bodies are "
                     "written with LF line endings; convert the block")
            continue
        begin, end = _BEGIN_RE.fullmatch(line), _END_RE.fullmatch(line)
        match = begin or end
        kind = (match.group("kind") or "") if match else ""
        if kind not in KINDS:
            fail(f"{where}: unknown KIND in {line} — no tool fills "
                 f"{_name(kind)}; known: "
                 f"{', '.join(_name(k) for k in KINDS)}")
        if begin:
            key = begin.group("key")
            if open_kind is not None:
                fail(f"{where}: {line} nested inside the block opened at "
                     f"line {open_at + 1}")
            if (kind, key) in first_line:
                fail(f"{where}: duplicate {line} (first at line "
                     f"{first_line[kind, key] + 1})")
            first_line[kind, key] = i
            open_kind, open_key, open_at = kind, key, i
        elif end:
            if open_kind is None:
                fail(f"{where}: {line} without a BEGIN")
            if open_kind != kind:
                fail(f"{where}: {line} cannot close "
                     f"{begin_marker(open_kind, open_key)} from line "
                     f"{open_at + 1}")
            blocks.append(Block(kind, open_key, open_at, i))
            open_kind = None
        else:
            fail(f"{where}: malformed marker {line!r} — expected "
                 f"'{begin_marker('KIND', '<key>')}' or "
                 f"'{end_marker('KIND')}' (KIND optional)")
    if open_kind is not None:
        fail(f"{path}:{open_at + 1}: unterminated "
             f"{begin_marker(open_kind, open_key)}")
    return blocks


def parse(path: Path) -> list[Block]:
    """Every GENERATED block in `path`, in file order; exits 2 on a
    malformed file."""
    return _parse_lines(path, _read(path).split("\n"))


def _regenerate_command() -> str:
    """The invocation that rewrites what this `--check` run verified."""
    return shlex.join(["python3", sys.argv[0],
                       *(a for a in sys.argv[1:] if a != "--check")])


def splice(path: Path, kind: str, bodies: dict[str, list[str]],
           check: bool, partial: bool = False) -> int:
    """Replace the body of every KIND block with `bodies[key]`.

    Returns the exit status: 0 when the file is (now) fresh, 1 when
    `check` found a stale block. Exits 2 on a malformed file, a marker
    without a body (unless `partial`) or a body without a marker.
    """
    text = _read(path)
    lines = text.split("\n")
    blocks = [b for b in _parse_lines(path, lines) if b.kind == kind]
    marked = {b.key for b in blocks}
    for key in sorted(set(bodies) - marked):
        fail(f"{path}: no '{begin_marker(kind, key)}' block for the "
             "generated body — add the marker pair")
    if not partial:
        for b in blocks:
            if b.key not in bodies:
                fail(f"{path}:{b.begin + 1}: nothing generates "
                     f"{begin_marker(kind, b.key)} — remove the block or "
                     "fix its key")

    new_lines = list(lines)
    stale = 0
    for b in reversed(blocks):
        if b.key in bodies and lines[b.begin + 1:b.end] != bodies[b.key]:
            new_lines[b.begin + 1:b.end] = bodies[b.key]
            stale += 1
    label = _name(kind)
    if not stale:
        print(f"{_prog()}: {path.name} up to date "
              f"({len(bodies)} {label} block(s))")
        return 0
    new_text = "\n".join(new_lines)
    if check:
        sys.stderr.writelines(difflib.unified_diff(
            text.splitlines(keepends=True),
            new_text.splitlines(keepends=True),
            fromfile=f"{path} (committed)",
            tofile=f"{path} (regenerated)"))
        print(f"{_prog()}: {path.name} is stale: {stale} {label} block(s) "
              f"differ — regenerate with: {_regenerate_command()}",
              file=sys.stderr)
        return 1
    path.write_bytes(new_text.encode("utf-8"))
    print(f"{_prog()}: wrote {path.name} ({stale} {label} block(s) "
          "regenerated)")
    return 0
