#!/usr/bin/env python3
"""Compare two perf-harness JSON reports and flag regressions.

Usage:
    tools/bench_compare.py BASELINE.json CURRENT.json [--threshold=20]
                           [--gate NAME:PCT ...] [--gate-min NAME:PCT ...]

Both files must be BENCH_planner.json / BENCH_executor.json reports (schema 1)
from the same harness. Scenarios are matched by name; scenarios present in
only one file are reported but do not fail the comparison (the matrix may
grow). For every matched scenario the minimum wall time is compared, and the
exit code is 1 when any current time exceeds the baseline by more than
--threshold percent (default 20). Correctness fields (audit_ok, parity_ok)
must hold in the current report regardless of timing.

Embedded observability metrics (the nested "metrics" objects the harnesses
emit per scenario / per solver) are diffed informationally by default:
numeric drift is printed but never fails the comparison — wall times drift
with the host, and counters only change when behaviour changes, which the
tier-1 tests gate. Specific metrics can be promoted to hard gates with the
repeatable --gate option: `--gate metrics.degree_of_imbalance:10` fails the
comparison when the current value exceeds the baseline by more than 10% (a
baseline of 0 fails on any increase). The top-level "peak_rss_kb" resource
stamp participates under its own name (`--gate peak_rss_kb:50`), so memory
regressions gate alongside behavioural metrics. For metrics where *lower* is the
regression direction (throughput, locality percentages), --gate-min is the
mirror image: `--gate-min metrics.requests_per_sec:30` fails when the
current value falls below the baseline by more than 30%. Gated metrics are
host-independent simulation outputs, so a tight percentage is safe —
except throughput-style metrics, which share the host sensitivity of wall
times and want a generous margin. Fields this script does not recognise are
reported as warnings so schema growth is always visible in CI logs.
"""

from __future__ import annotations

import argparse
import json
import sys

# Known per-scenario / per-solver keys; anything else triggers a warning.
_KNOWN_SCENARIO_KEYS = {
    "name", "nodes", "tasks", "replication", "seed", "repeats",
    "wall_ms_min", "wall_ms_mean", "makespan_s", "local_pct",
    "peak_rss_kb", "parity_ok", "algorithms", "metrics",
}
_KNOWN_SOLVER_KEYS = {
    "wall_ms_min", "wall_ms_mean", "locally_matched", "locality_pct",
    "audit_ok", "metrics",
}


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    if report.get("schema") != 1:
        raise SystemExit(f"{path}: unsupported schema {report.get('schema')!r}")
    return report


def wall_times(scenario: dict) -> dict[str, float]:
    """Flatten a scenario into {metric_name: wall_ms_min}."""
    if "algorithms" in scenario:  # planner report: one entry per solver
        return {
            f"{algo}.wall_ms_min": data["wall_ms_min"]
            for algo, data in scenario["algorithms"].items()
        }
    return {"wall_ms_min": scenario["wall_ms_min"]}


def metric_values(scenario: dict) -> dict[str, float]:
    """Flatten the embedded "metrics" objects into {dotted_name: value}."""
    out: dict[str, float] = {}
    # Top-level resource footprint: every harness stamps its ru_maxrss, so
    # memory regressions can be gated with `--gate peak_rss_kb:PCT` the same
    # way as embedded metrics. RSS is host-sensitive (allocator, page size),
    # so gates want a generous margin, like throughput.
    rss = scenario.get("peak_rss_kb")
    if isinstance(rss, (int, float)) and not isinstance(rss, bool):
        out["peak_rss_kb"] = float(rss)
    for key, value in scenario.get("metrics", {}).items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            out[f"metrics.{key}"] = float(value)
    for algo, data in scenario.get("algorithms", {}).items():
        for key, value in data.get("metrics", {}).items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                out[f"{algo}.metrics.{key}"] = float(value)
    return out


def unknown_field_warnings(scenario: dict) -> list[str]:
    warnings = [f"unrecognised scenario field '{key}'"
                for key in sorted(scenario.keys() - _KNOWN_SCENARIO_KEYS)]
    for algo, data in sorted(scenario.get("algorithms", {}).items()):
        warnings.extend(f"unrecognised solver field '{algo}.{key}'"
                        for key in sorted(data.keys() - _KNOWN_SOLVER_KEYS))
    return warnings


def correctness_failures(scenario: dict) -> list[str]:
    bad = []
    if scenario.get("parity_ok") is False:
        bad.append("parity_ok=false")
    for algo, data in scenario.get("algorithms", {}).items():
        if data.get("audit_ok") is False:
            bad.append(f"{algo}.audit_ok=false")
    return bad


def parse_gate(spec: str) -> tuple[str, float]:
    """Parse a NAME:PCT gate spec, e.g. 'metrics.degree_of_imbalance:10'."""
    name, sep, pct = spec.rpartition(":")
    try:
        if not sep or not name:
            raise ValueError
        return name, float(pct)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"gate {spec!r} is not NAME:PCT (e.g. metrics.degree_of_imbalance:10)")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--threshold", type=float, default=20.0,
                        help="max allowed wall-time regression in percent")
    parser.add_argument("--gate", type=parse_gate, action="append", default=[],
                        metavar="NAME:PCT",
                        help="fail when embedded metric NAME exceeds the "
                             "baseline by more than PCT percent (repeatable)")
    parser.add_argument("--gate-min", type=parse_gate, action="append", default=[],
                        metavar="NAME:PCT",
                        help="fail when embedded metric NAME falls below the "
                             "baseline by more than PCT percent (repeatable)")
    args = parser.parse_args()

    base = load(args.baseline)
    curr = load(args.current)
    if base.get("bench") != curr.get("bench"):
        raise SystemExit(
            f"harness mismatch: {base.get('bench')!r} vs {curr.get('bench')!r}")

    base_by_name = {s["name"]: s for s in base["scenarios"]}
    curr_by_name = {s["name"]: s for s in curr["scenarios"]}

    failures = []
    for name in sorted(base_by_name.keys() | curr_by_name.keys()):
        if name not in base_by_name:
            print(f"  {name}: new scenario (no baseline)")
            continue
        if name not in curr_by_name:
            print(f"  {name}: missing from current report")
            continue

        for issue in correctness_failures(curr_by_name[name]):
            failures.append(f"{name}: {issue}")
        for warning in unknown_field_warnings(curr_by_name[name]):
            print(f"  {name}: WARNING: {warning}")

        base_times = wall_times(base_by_name[name])
        curr_times = wall_times(curr_by_name[name])
        for metric in sorted(base_times.keys() & curr_times.keys()):
            b, c = base_times[metric], curr_times[metric]
            delta = 100.0 * (c - b) / b if b > 0 else 0.0
            verdict = "ok"
            if delta > args.threshold:
                verdict = "REGRESSION"
                failures.append(f"{name}: {metric} {b:.3f} -> {c:.3f} ms (+{delta:.1f}%)")
            print(f"  {name}: {metric} {b:.3f} -> {c:.3f} ms ({delta:+.1f}%) {verdict}")

        # Embedded observability metrics: informational by default, hard
        # failures for metrics promoted with --gate.
        base_metrics = metric_values(base_by_name[name])
        curr_metrics = metric_values(curr_by_name[name])
        for metric in sorted(base_metrics.keys() & curr_metrics.keys()):
            b, c = base_metrics[metric], curr_metrics[metric]
            gate_pct = next((pct for gate_name, pct in args.gate
                             if metric == gate_name
                             or metric.endswith("." + gate_name)), None)
            gate_min_pct = next((pct for gate_name, pct in args.gate_min
                                 if metric == gate_name
                                 or metric.endswith("." + gate_name)), None)
            if gate_pct is None and gate_min_pct is None:
                if b != c:
                    print(f"  {name}: {metric} {b:g} -> {c:g} (informational)")
                continue
            gated_ok = True
            if gate_pct is not None and c > b * (1.0 + gate_pct / 100.0):
                gated_ok = False
                failures.append(f"{name}: {metric} {b:g} -> {c:g} "
                                f"(gate: at most +{gate_pct:g}%)")
            if gate_min_pct is not None and c < b * (1.0 - gate_min_pct / 100.0):
                gated_ok = False
                failures.append(f"{name}: {metric} {b:g} -> {c:g} "
                                f"(gate: at least -{gate_min_pct:g}%)")
            print(f"  {name}: {metric} {b:g} -> {c:g} "
                  f"{'ok (gated)' if gated_ok else 'GATED REGRESSION'}")
        for metric in sorted(curr_metrics.keys() - base_metrics.keys()):
            print(f"  {name}: {metric} new metric (no baseline)")

    if failures:
        print(f"\n{len(failures)} failure(s), threshold {args.threshold:.0f}%:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print(f"\nno regressions beyond {args.threshold:.0f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
