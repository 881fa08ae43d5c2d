#!/usr/bin/env python3
"""Compare benchmark results of a parent commit and a change.

    compare.py [--bench BENCHMARK.json] --parent P1.json P2.json ... --change C1.json C2.json ...
    compare.py --self-test

Each file is one result document written by `opass_bench --out=FILE`. List
the files in run order: the i-th parent file and the i-th change file form
one pair, so run the two sides alternately (at least ten pairs, alternating
which side goes first). Bounds come from BENCHMARK.json's end_to_end list.

For every workload x end-to-end metric the script prints both sides' median
and quartiles, the fraction of pairs the change wins (ties count for
neither) and a verdict:

  improved    the change wins >= 9/10 of the pairs and the medians differ by
              more than the parent's interquartile range, in the better
              direction
  unresolved  not improved, a side's spread (IQR / median) is wider than the
              bound, and not every change run beats every parent run
  regressed   the change's median is worse than the parent's by more than the
              bound (a share of the parent's median)
  unchanged   otherwise

Exits 1 when any pairing regressed, 0 otherwise.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_BENCH = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")


def verdict(parent, change, better, bound):
    """Return (verdict, win_fraction) for two equally long sample lists."""
    sign = 1.0 if better == "lower" else -1.0
    pq = statistics.quantiles(parent, n=4)
    cq = statistics.quantiles(change, n=4)
    pm = statistics.median(parent)
    cm = statistics.median(change)
    gain = sign * (pm - cm)  # > 0 when the change is better
    pairs = min(len(parent), len(change))
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    win_frac = wins / pairs
    if win_frac >= 0.9 and gain > pq[2] - pq[0]:
        return "improved", win_frac
    spread = max((pq[2] - pq[0]) / abs(pm), (cq[2] - cq[0]) / abs(cm))
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if spread > bound and not all_better:
        return "unresolved", win_frac
    if -gain > bound * abs(pm):
        return "regressed", win_frac
    return "unchanged", win_frac


def load(paths):
    docs = []
    for path in paths:
        with open(path) as f:
            docs.append(json.load(f))
    return docs


def values(docs, workload, metric):
    out = []
    for doc in docs:
        m = doc.get("workloads", {}).get(workload, {}).get("metrics", {}).get(metric)
        if m is None:
            return None
        out.append(m["value"])
    return out


def compare(bench, parents, changes, out=sys.stdout):
    """Print the comparison table; return the list of verdicts."""
    if len(parents) < 2 or len(parents) != len(changes):
        raise SystemExit("compare.py: need the same number (>= 2) of parent and change files")
    workloads = [w["name"] for w in bench["workloads"]]
    verdicts = []
    print("%-17s %-12s %30s %30s %6s  %s" % ("workload", "metric", "parent median [q1, q3]",
                                              "change median [q1, q3]", "wins", "verdict"),
          file=out)
    for w in workloads:
        for m in bench["end_to_end"]:
            p = values(parents, w, m["name"])
            c = values(changes, w, m["name"])
            if p is None or c is None:
                continue
            v, win_frac = verdict(p, c, m["better"], m["bound"])
            verdicts.append(v)
            pq = statistics.quantiles(p, n=4)
            cq = statistics.quantiles(c, n=4)
            print("%-17s %-12s %10.4g [%8.4g, %8.4g] %10.4g [%8.4g, %8.4g] %5.0f%%  %s"
                  % (w, m["name"], statistics.median(p), pq[0], pq[2], statistics.median(c),
                     cq[0], cq[2], 100 * win_frac, v), file=out)
    return verdicts


def self_test():
    """Check each verdict on synthetic samples."""
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]
    cases = [
        ("improved", base, [x - 10 for x in base], "lower"),
        ("improved", base, [x + 10 for x in base], "higher"),
        ("regressed", base, [x * 1.2 for x in base], "lower"),
        ("regressed", base, [x * 0.8 for x in base], "higher"),
        ("unchanged", base, [x + 0.5 for x in base], "lower"),
        ("unresolved", [60, 140, 80, 120, 100, 70, 130, 90, 110, 100], base, "lower"),
        # A wide spread still resolves when every change run beats every parent run.
        ("unchanged", [10, 20, 30, 40, 50, 60, 70, 80, 90, 95],
         [96, 97, 98, 99, 100, 96.5, 97.5, 98.5, 99.5, 100], "higher"),
    ]
    failures = 0
    for want, parent, change, better in cases:
        got, _ = verdict(parent, change, better, 0.1)
        if got != want:
            print("self-test: want %s, got %s (better=%s)" % (want, got, better))
            failures += 1
    bench = {"workloads": [{"name": "w"}],
             "end_to_end": [{"name": "run_ms_p50", "better": "lower", "bound": 0.1}]}
    docs = lambda xs: [{"workloads": {"w": {"metrics": {"run_ms_p50": {"value": x}}}}}
                       for x in xs]
    with open(os.devnull, "w") as sink:
        if compare(bench, docs(base), docs([x * 1.2 for x in base]), sink) != ["regressed"]:
            print("self-test: end-to-end comparison did not report the regression")
            failures += 1
    print("self-test: %s" % ("ok" if failures == 0 else "%d failure(s)" % failures))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench", default=DEFAULT_BENCH)
    parser.add_argument("--parent", nargs="+", default=[])
    parser.add_argument("--change", nargs="+", default=[])
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    with open(args.bench) as f:
        bench = json.load(f)
    verdicts = compare(bench, load(args.parent), load(args.change))
    return 1 if "regressed" in verdicts else 0


if __name__ == "__main__":
    sys.exit(main())
