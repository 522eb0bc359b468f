#!/usr/bin/env python3
"""Builds the fleet benchmark from source and runs one workload.

    python3 fleetbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                              [--fleet-seed X] [--popgen-seed X]

Workloads: cast_fleet, population_long, population_retained (README.md).
The simulator libraries under src/ and the driver in this directory are
compiled in Release into .bench_build/fleetbench at the repository root;
later runs only re-check that build. Build output goes to stderr. The
driver's stdout is passed through: human-readable lines, then one JSON
object as the last line. The exit code is non-zero, with no JSON printed,
when the build or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "fleetbench")
WORKLOADS = ("cast_fleet", "population_long", "population_retained")


def build():
    """Configures (once) and builds the driver; returns the binary path."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            # A half-configured tree would be mistaken for a good one.
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return None
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "fleetbench", "-j", "2"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(BUILD_DIR, "fleetbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--fleet-seed")
    parser.add_argument("--popgen-seed")
    args = parser.parse_args()

    binary = build()
    if binary is None:
        print("fleetbench: build failed", file=sys.stderr)
        return 1
    run_dir = os.path.join(BUILD_DIR, "runs")
    os.makedirs(run_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--population", os.path.join(BENCH_DIR, "population.csv"),
           "--dir", run_dir]
    if args.fleet_seed is not None:
        cmd += ["--fleet-seed", args.fleet_seed]
    if args.popgen_seed is not None:
        cmd += ["--popgen-seed", args.popgen_seed]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
