#!/usr/bin/env python3
"""Compare perf_faults wall times against a baseline report.

Usage:
    tools/bench_compare.py BASELINE.json CURRENT.json

Both files are perf_faults JSON reports. Scenarios are matched by name, and
the exit code is 1 when a scenario is missing from CURRENT or its
wall_ms_min exceeds the baseline's by more than 60 %. Each run takes a few
milliseconds, so host noise alone moves it by tens of percent. The
scenarios' outcomes are exact and pinned elsewhere (the perf_faults_pinned
ctest), so this script compares nothing else.
"""

from __future__ import annotations

import json
import sys

THRESHOLD_PCT = 60.0


def wall_times(path: str) -> dict[str, float]:
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    return {s["name"]: s["wall_ms_min"] for s in report["scenarios"]}


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, curr = wall_times(argv[1]), wall_times(argv[2])
    failures = 0
    for name, b in sorted(base.items()):
        if name not in curr:
            print(f"  {name}: missing from {argv[2]}")
            failures += 1
            continue
        c = curr[name]
        delta = 100.0 * (c - b) / b if b > 0 else 0.0
        regressed = delta > THRESHOLD_PCT
        failures += regressed
        print(f"  {name}: wall_ms_min {b:.3f} -> {c:.3f} ms ({delta:+.1f}%)"
              f" {'REGRESSION' if regressed else 'ok'}")
    if failures:
        print(f"\n{failures} failure(s), threshold {THRESHOLD_PCT:.0f}%")
        return 1
    print(f"\nno regressions beyond {THRESHOLD_PCT:.0f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
