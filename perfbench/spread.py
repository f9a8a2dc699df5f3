#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs perfbench/run.py once per seed on each workload (untraced) and prints,
per metric, the median, the quartiles and the spread (Q3 - Q1) / median,
using statistics.quantiles(values, n=4), next to the metric's bound from
BENCHMARK.json. The benchmark is steady when every spread except that of
setup_s is below its bound (the target while tuning is a third of it).

    python3 perfbench/spread.py --workload serve-mixed --seeds 1-5
    python3 perfbench/spread.py --seeds 1-10          # every workload

Run it from the repository root. --out FILE also writes the raw values.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    spec = json.loads(Path("BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out", help="write raw values as JSON here")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)
    raw = {}
    ok = True
    for w in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", w,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"], stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{w} seed {seed}: run failed ({proc.returncode})")
                ok = False
                continue
            record = json.loads(lines[-2])
            result = json.loads(lines[-1])
            if not record.get("valid", False):
                print(f"{w} seed {seed}: invalid: "
                      f"{record.get('invalid_reasons')}")
            for k, v in result["metrics"].items():
                values[k].append(v["value"])
        raw[w] = values
        for m in spec["end_to_end"]:
            vals = values[m["name"]]
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if m["name"] == "setup_s" else (
                "ok" if spread < m["bound"] / 3 else
                "within bound" if spread < m["bound"] else "TOO WIDE")
            if flag == "TOO WIDE":
                ok = False
            print(f"{w:18s} {m['name']:14s} median {med:14.6g} "
                  f"q1 {q1:14.6g} q3 {q3:14.6g} spread {spread:7.4f} "
                  f"bound {m['bound']:.2f} {flag}")
        sys.stdout.flush()
    if args.out:
        Path(args.out).write_text(json.dumps(raw, indent=1))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
