#!/usr/bin/env python3
"""Run one workload of the repository benchmark (the command BENCHMARK.json names).

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds opass_bench from source into .bench_build/ at the checkout root on
first use (CMake, Release), runs workload NAME on inputs made from seed N for
S seconds, and prints as its last line one JSON object:

    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

with BENCHMARK.json's end_to_end metrics (--trace 0) or per_layer metrics
(--trace 1). Exits non-zero, printing no result, when the build or the run
cannot produce one, and 1 after the result when a run failed its checks.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    """Configure once, then (re)build opass_bench; returns its path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", "opass_bench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("run.py: build step failed: " + " ".join(cmd))
    return os.path.join(BUILD, "opass_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        sys.exit("run.py: unknown workload " + args.workload)
    if args.seconds < 1 or args.seed < 0:
        sys.exit("run.py: --seconds must be >= 1 and --seed >= 0")

    cmd = [build(), "--workloads=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%d" % args.seconds]
    if args.trace:
        # Per-layer numbers only: skip the fresh-child probes, keep the spans.
        spans = os.path.join(BUILD, "host_spans_%s.json" % args.workload)
        cmd += ["--traced", "--probes=0", "--spans-out=" + spans]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + 150)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: opass_bench timed out")
    lines = proc.stdout.splitlines()
    try:
        doc = json.loads(lines[-1])
        result = doc["workloads"][args.workload]
    except (IndexError, ValueError, KeyError):
        sys.exit("run.py: opass_bench printed no result (exit %d)" % proc.returncode)

    for line in lines[:-1]:
        print(line)
    names = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    metrics = {n: result["metrics"][n] for n in names if n in result["metrics"]}
    correct = (proc.returncode == 0 and result["failed"] == 0
               and result["golden"] != "mismatch" and len(metrics) == len(names))
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
