#!/usr/bin/env python3
"""Smoke gate for opass_bench (ctest bench_e2e_smoke).

    smoke.py <path/to/opass_bench> <path/to/BENCHMARK.json>

Runs one traced round of every workload at the default seed and checks that
the run exits 0, that no run failed (staged replicas and fresh-child probes
included; each is checked against the untraced run's digest), that every
digest matches golden.json, that the metric names are exactly BENCHMARK.json's,
that the staged replicas cover >= 95% of their run on the simulation
workloads, and that the host-span JSON stays under 5 MB.
"""

import json
import os
import subprocess
import sys
import tempfile

SIMULATION = ("single-contended", "single-opass", "sinks-on", "dynamic-crash")


def main():
    exe, bench_path = sys.argv[1], sys.argv[2]
    with open(bench_path) as f:
        bench = json.load(f)
    want = {m["name"] for m in bench["end_to_end"] + bench["per_layer"]}
    errors = []
    with tempfile.TemporaryDirectory() as tmp:
        spans = os.path.join(tmp, "spans.json")
        # A timed phase shorter than one round runs exactly one round.
        proc = subprocess.run([exe, "--seconds=0.001", "--traced", "--probes=1",
                               "--spans-out=" + spans],
                              stdout=subprocess.PIPE, text=True, timeout=120)
        if proc.returncode != 0:
            errors.append("opass_bench exited %d" % proc.returncode)
        doc = json.loads(proc.stdout.splitlines()[-1])
        if os.path.getsize(spans) >= 5 * 1024 * 1024:
            errors.append("host-span JSON is %d bytes" % os.path.getsize(spans))
    if sorted(doc["workloads"]) != sorted(w["name"] for w in bench["workloads"]):
        errors.append("workloads %s differ from BENCHMARK.json" % sorted(doc["workloads"]))
    for name, result in doc["workloads"].items():
        if result["failed"] != 0:
            errors.append("%s: %d failed run(s): %s" % (name, result["failed"], result["errors"]))
        if result["golden"] != "match":
            errors.append("%s: golden digest %s" % (name, result["golden"]))
        got = set(result["metrics"])
        if got != want:
            errors.append("%s: metric names differ from BENCHMARK.json: missing %s, extra %s"
                          % (name, sorted(want - got), sorted(got - want)))
        coverage = result["metrics"].get("bench.trace_coverage", {}).get("value", 0)
        if name in SIMULATION and coverage < 0.95:
            errors.append("%s: trace coverage %.3f < 0.95" % (name, coverage))
    for e in errors:
        print("smoke: " + e)
    print("smoke: %s" % ("ok" if not errors else "FAILED"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
