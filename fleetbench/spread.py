#!/usr/bin/env python3
"""Runs two sets of benchmark runs of the same build and prints, for every
end-to-end metric and workload, each set's median and quartile spread.

    python3 fleetbench/spread.py [--runs 10] [--seconds S] [--workloads a,b]
                                 [--trace 0|1]

With --runs 1 it simply prints every metric of every workload once per set
(--trace 1: the per-layer metrics).

Set 1 uses seeds 1..R and set 2 seeds 101..100+R, so the spread includes
seed-to-seed variation of the inputs as well as timing noise. The spread is
(Q3 - Q1) / median with quartiles from statistics.quantiles(values, n=4); the
shift is (median 2 - median 1) / median 1, signed so that positive is worse.
A metric's bound in BENCHMARK.json should exceed both by a clear margin
(three times the spread is the target).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"run failed: {' '.join(cmd)} (exit {out.returncode})")
    return json.loads(lines[-1])


def spread(values):
    if len(values) < 2:  # --runs 1: a single reading has no spread
        return values[0], float("nan")
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("nan")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()

    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    for workload in args.workloads.split(","):
        sets = [[run_once(workload, seed, args.seconds, args.trace)
                 for seed in range(base + 1, base + args.runs + 1)]
                for base in (0, 100)]
        print(f"\n{workload} ({args.runs} runs per set, {args.seconds} s each)")
        for i, results in enumerate(sets, 1):
            correct = all(r["correct"] for r in results)
            failed = sum(r["failed"] for r in results)
            attempted = sum(r["attempted"] for r in results)
            print(f"  set {i}: correct={correct} failed {failed}/{attempted}")
        print(f"  {'metric':<26}{'median 1':>14}{'spread 1':>10}"
              f"{'median 2':>14}{'spread 2':>10}{'shift':>9}{'bound':>7}")
        for name in sets[0][0]["metrics"]:
            meds, spreads = [], []
            for results in sets:
                m, s = spread([r["metrics"][name]["value"] for r in results])
                meds.append(m)
                spreads.append(s)
            shift = (meds[1] - meds[0]) / meds[0] if meds[0] else float("nan")
            if better.get(name) == "higher":
                shift = -shift
            bound = bounds.get(name)
            print(f"  {name:<26}{meds[0]:>14.6g}{spreads[0]:>10.4f}"
                  f"{meds[1]:>14.6g}{spreads[1]:>10.4f}{shift:>+9.4f}"
                  f"{bound if bound is not None else '-':>7}")


if __name__ == "__main__":
    main()
