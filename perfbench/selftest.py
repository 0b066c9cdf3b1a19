#!/usr/bin/env python3
"""Benchmark self-test: runs every workload briefly twice with one seed
and once traced, through run.py exactly as a user would.

    python3 perfbench/selftest.py [--seconds 2]

Fails unless:
  * run.py's metric lists match BENCHMARK.json, and every metric prints
    with its name and unit;
  * every correctness check passes and failed ops are zero;
  * every deterministic counter is identical across the two runs.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark's own metric lists)


def invoke(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    p = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        return None, {}, p.stderr[-2000:]
    counters = {}
    for line in lines:
        if line.startswith("# counter "):
            _, _, name, value = line.split()
            counters[name] = int(value)
    return json.loads(lines[-1]), counters, p.stdout


def check_metrics(result, wanted):
    problems = []
    for name, unit in wanted:
        m = result["metrics"].get(name)
        if m is None:
            problems.append("missing metric " + name)
        elif m.get("unit") != unit or not isinstance(m.get("value"),
                                                     (int, float)):
            problems.append("bad metric %s: %r" % (name, m))
    extra = set(result["metrics"]) - {n for n, _ in wanted}
    if extra:
        problems.append("unexpected metrics " + ", ".join(sorted(extra)))
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=2.0)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    problems = []

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared_e2e = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    declared_layer = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    if declared_e2e != run.END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.py")
    if declared_layer != run.PER_LAYER:
        problems.append("BENCHMARK.json per_layer differs from run.py")
    if {w["name"]: w["why"] for w in bench["workloads"]} != run.WORKLOADS:
        problems.append("BENCHMARK.json workloads differ from run.py")

    for workload in run.WORKLOADS:
        plain = []
        for _ in range(2):
            res, counters, log = invoke(workload, args.seed, args.seconds, 0)
            if res is None:
                problems.append("%s: run failed: %s" % (workload, log))
                continue
            problems += ["%s: %s" % (workload, p)
                         for p in check_metrics(res, run.END_TO_END)]
            plain.append((res, counters))
        traced, _, log = invoke(workload, args.seed, args.seconds, 1)
        if traced is None:
            problems.append("%s: traced run failed: %s" % (workload, log))
        else:
            problems += ["%s traced: %s" % (workload, p)
                         for p in check_metrics(traced, run.PER_LAYER)]
        for res in [r for r, _ in plain] + ([traced] if traced else []):
            if not res["correct"] or res["failed"] != 0:
                problems.append("%s: correct=%s failed=%d of %d" % (
                    workload, res["correct"], res["failed"],
                    res["attempted"]))
        if len(plain) == 2:
            a, b = plain[0][1], plain[1][1]
            if not a:
                problems.append("%s: no deterministic counters" % workload)
            elif a != b:
                diff = sorted(k for k in set(a) | set(b)
                              if a.get(k) != b.get(k))
                problems.append("%s: counters differ across runs: %s" % (
                    workload, ", ".join(diff)))
        print("selftest %s: checked" % workload, flush=True)

    for p in problems:
        print("FAIL " + p)
    print("selftest %s" % ("FAILED" if problems else "passed"))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
