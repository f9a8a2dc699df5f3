#!/usr/bin/env python3
"""The benchmark's own tests.

1. BENCHMARK.json obeys the benchmark contract (keys, name/unit syntax,
   bounds, workload count) and names the same metrics the harness reports.
2. Determinism: two traced runs of each workload with the same seed report
   identical exact counters -- the model counters, clique.*, comm.*
   packet/round/batch counts, lotker.phases, sketch.boruvka_rounds and
   service.sig_hit_ratio (single-writer workloads; boruvka rounds are a
   racy per-recompute mean on serve-mixed and are skipped there).
3. Every run passes its correctness oracle and prints a well-formed result
   line.

    python3 perfbench/selftest.py                # every workload, ~1.5 min
    python3 perfbench/selftest.py --workload ingest-local

Run it from the repository root; exit status 0 means every check passed.
"""
import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

EXACT_LAYER = ("clique.rounds", "clique.messages", "clique.words",
               "comm.route_rounds", "comm.color_batches", "comm.packets",
               "lotker.phases", "sketch.boruvka_rounds",
               "service.sig_hit_ratio")
NOT_EXACT = {"serve-mixed": {"sketch.boruvka_rounds"}}
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_spec(spec):
    errors = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(spec) != keys:
        errors.append(f"BENCHMARK.json keys {sorted(spec)} != {sorted(keys)}")
    if not 1 <= spec["run_seconds"] <= 60:
        errors.append("run_seconds outside 1..60")
    if not 2 <= len(spec["workloads"]) <= 8:
        errors.append("need 2..8 workloads")
    names = set()
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200:
            errors.append(f"bad workload entry {w}")
    for m in spec["end_to_end"] + spec["per_layer"]:
        want = {"name", "unit", "better"} | (
            {"bound"} if m in spec["end_to_end"] else set())
        if set(m) != want:
            errors.append(f"bad metric keys {m}")
        if not NAME.match(m["name"]) or not UNIT.match(m["unit"]):
            errors.append(f"bad metric name/unit {m}")
        if m["name"] in names:
            errors.append(f"duplicate metric {m['name']}")
        names.add(m["name"])
    for m in spec["end_to_end"]:
        if not 0 < m.get("bound", 1) <= 0.25:
            errors.append(f"bound of {m['name']} outside (0, 0.25]")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        errors.append("setup_s (s, lower) missing")
    elif setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"]):
        errors.append("setup_s must carry the largest bound")
    return errors


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload}: run.py exited {proc.returncode}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def check_result(spec, result, trace):
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    wanted = {m["name"] for m in
              (spec["per_layer"] if trace else spec["end_to_end"])}
    if set(result["metrics"]) != wanted:
        errors.append("result metrics differ from BENCHMARK.json")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        errors.append(f"correctness: {result}")
    if not trace:
        for k, v in result["metrics"].items():
            if not v["value"] > 0:
                errors.append(f"end-to-end metric {k} is not positive")
    return errors


def main():
    spec = json.loads(Path("BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=2)
    args = ap.parse_args()
    errors = check_spec(spec)
    for w in args.workload or [w["name"] for w in spec["workloads"]]:
        record0, result0 = run(w, args.seed, args.seconds, 0)
        errors += [f"{w} untraced: {e}"
                   for e in check_result(spec, result0, 0)]
        runs = [run(w, args.seed, args.seconds, 1) for _ in range(2)]
        for record, result in runs:
            errors += [f"{w} traced: {e}"
                       for e in check_result(spec, result, 1)]
        (a, _), (b, _) = runs
        if a["counters"] != b["counters"] or a["counters"] != record0["counters"]:
            errors.append(f"{w}: counters differ between same-seed runs: "
                          f"{a['counters']} vs {b['counters']}")
        for k in EXACT_LAYER:
            if k in NOT_EXACT.get(w, ()):
                continue
            if a["per_layer"][k] != b["per_layer"][k]:
                errors.append(f"{w}: {k} differs between same-seed runs: "
                              f"{a['per_layer'][k]} vs {b['per_layer'][k]}")
        print(f"{w}: counters {a['counters']}", flush=True)
    for e in errors:
        print(f"FAIL {e}")
    print("selftest: " + ("ok" if not errors else f"{len(errors)} failures"))
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
