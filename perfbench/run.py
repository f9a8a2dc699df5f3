#!/usr/bin/env python3
"""Repo benchmark entry point.

Builds the perfbench harness (perfbench/CMakeLists.txt: the library from
src/ plus perfbench.cpp, Release) under .bench_build/perfbench, runs one
workload and prints two lines on stdout: the harness's full JSON record
(fingerprint, end-to-end metrics with sample counts, user-facing detail metrics,
exact counters, per-layer metrics when traced), then the result line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are the end_to_end list of BENCHMARK.json (--trace 0) or its
per_layer list (--trace 1).

    python3 perfbench/run.py --workload recompute-engine --seed 1 \\
        --seconds 15 --trace 0

Run it from the repository root. Exit status is 0 only when the harness ran
and every correctness check passed.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("recompute-engine", "ingest-local", "serve-mixed", "paper-gc-mst")
BUILD_DIR = Path(".bench_build") / "perfbench"


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(root):
    """Configure (once) and build the harness; build output goes to stderr."""
    src = root / "perfbench"
    if not (src / "CMakeLists.txt").is_file():
        die("perfbench/CMakeLists.txt not found; run from the repository root")
    if not (root / "src" / "CMakeLists.txt").is_file():
        die("src/CMakeLists.txt not found: the library sources are missing")
    if shutil.which("cmake") is None:
        die("cmake not found")
    build_dir = root / BUILD_DIR
    if not (build_dir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(src), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            die("cmake configure failed", 1)
    jobs = max(1, min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(build_dir), "-j", str(jobs)]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        die("build failed", 1)
    binary = build_dir / "perfbench"
    if not binary.is_file():
        die("build produced no perfbench binary", 1)
    return binary


def load_spec(root):
    path = root / "BENCHMARK.json"
    if not path.is_file():
        die("BENCHMARK.json not found at the repository root")
    return json.loads(path.read_text())


def run(args, root=None):
    """Build, run one workload; return (record, result, exit status)."""
    root = root or Path.cwd()
    spec = load_spec(root)
    binary = build(root)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = root / BUILD_DIR / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans",
                str(spans_dir / f"{args.workload}-seed{args.seed}.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 3) or not lines:
        die(f"harness exited with status {proc.returncode}", 1)
    record = json.loads(lines[-1])
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = record["per_layer"] if args.trace else {
        k: v["value"] for k, v in record["end_to_end"].items()}
    metrics = {}
    for m in wanted:
        if m["name"] not in source:
            die(f"harness did not report metric {m['name']}", 1)
        metrics[m["name"]] = {"value": source[m["name"]], "unit": m["unit"]}
    result = {"correct": bool(record["correct"]),
              "attempted": int(record["attempted"]),
              "failed": int(record["failed"]),
              "metrics": metrics}
    status = 0 if proc.returncode == 0 and result["correct"] else 1
    return record, result, status


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1:
        die("--seconds must be at least 1")
    record, result, status = run(args)
    if not record.get("valid", False):
        print("perfbench: run flagged invalid: " +
              "; ".join(record.get("invalid_reasons", [])), file=sys.stderr)
    for why in record.get("failures", []):
        print(f"perfbench: check failed: {why}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps(result))
    sys.exit(status)


if __name__ == "__main__":
    main()
