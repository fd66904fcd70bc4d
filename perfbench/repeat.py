#!/usr/bin/env python3
"""Repeat mode: run the benchmark several times, one seed per run, and
print each metric's median and interquartile spread.

    python3 perfbench/repeat.py --workload fft2d --runs 10 [--seed-base 1]

Every run measures for BENCHMARK.json's run_seconds. The spread is
(Q3 - Q1) / median with the quartiles from statistics.quantiles(values,
n=4). Where BENCHMARK.json gives a metric a bound, the spread is printed
against it.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    # Each run measures for the run_seconds BENCHMARK.json fixes: the
    # spread is judged against the bounds at that run length only.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    values = {}
    units = {}
    failed = 0
    for i in range(args.runs):
        seed = args.seed_base + i
        cmd = ["bash", os.path.join(HERE, "run.sh"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            sys.exit("run with seed %d failed (exit %d)" % (seed, proc.returncode))
        res = json.loads(lines[-1])
        failed += res["failed"]
        if not res["correct"]:
            print("seed %d: correct=false (%d of %d failed)" % (seed, res["failed"], res["attempted"]))
        row = []
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
            row.append("%s=%.4g" % (name, m["value"]))
        print("seed %d: %s" % (seed, " ".join(row)), flush=True)

    print("\n%-34s %12s %12s %12s %8s %8s" % ("metric", "median", "q1", "q3", "spread", "bound"))
    for name in values:
        xs = values[name]
        med = statistics.median(xs)
        if len(xs) >= 2:
            q1, _, q3 = statistics.quantiles(xs, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        print("%-34s %12.5g %12.5g %12.5g %8.4f %8s %s" % (
            name, med, q1, q3, spread, "" if bound is None else "%.3g" % bound, units[name]))
    print("failed operations over all runs: %d" % failed)


if __name__ == "__main__":
    main()
