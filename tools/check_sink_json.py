#!/usr/bin/env python3
"""Validate the metrics, span and critical-path JSON documents opass_cli writes.

Usage:
    tools/check_sink_json.py KIND FILE [KIND FILE ...]

where KIND is metrics, spans or critical-path, e.g.

    tools/check_sink_json.py metrics metrics.json spans spans.json \
        critical-path critical_path.json

The Chrome trace and the HTML report have their own checkers
(check_chrome_trace.py, check_report.py). This one covers the other three
documents, as written by obs::to_json (--metrics-out) and obs::SpanDocBuilder
(--spans-out, --critical-path=*.json).

metrics:
  1. schema 1 and a "metrics" array of objects with unique names;
  2. counters carry a non-negative integer value, gauges a number;
  3. a histogram's bucket bounds ("le") ascend strictly, and its bucket counts
     plus "overflow" equal its "count".

spans (per method):
  1. "span_count" equals the number of spans and ids are dense (span i has
     id i); every parent is -1 or an earlier span;
  2. every span has start_ticks <= end_ticks, and a non-empty breakdown
     chains gap-free from start_ticks to end_ticks;
  3. "makespan_ticks" is the latest end_ticks (0 without spans);
  4. "attribution" equals the sums over top-level spans recomputed here:
     total_ticks, each kind (an untiled span charges "other") and each
     blamed node, and the kinds sum to total_ticks.

critical-path (per method):
  1. steps chain exactly (each starts where the previous ended) and the last
     ends at "makespan_ticks"; idle steps have span -1;
  2. the blame kinds sum to total_ticks, which equals the ticks the steps
     cover.

Exit code 0 when every document is valid, 1 otherwise, 2 on usage errors. Used
by the cli_*_valid ctest entries and the CI bench-smoke job.
"""

from __future__ import annotations

import json
import sys

ATTR_KINDS = ("queue_wait", "seek", "src_disk", "src_nic", "dst_nic", "rack_uplink",
              "rack_downlink", "stream_cap", "degraded", "compute", "barrier", "other")
SPAN_KINDS = ("task", "read", "wait", "queue", "plan")


def is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def check_metrics(doc) -> list[str]:
    errors: list[str] = []
    if doc.get("schema") != 1 or not isinstance(doc.get("metrics"), list):
        return ["top level must be {\"schema\": 1, \"metrics\": [...]}"]
    seen: set[str] = set()
    for i, m in enumerate(doc["metrics"]):
        where = f"metric {i}"
        if not isinstance(m, dict) or not isinstance(m.get("name"), str):
            errors.append(f"{where}: not an object with a string name")
            continue
        where = f"metric {m['name']!r}"
        if m["name"] in seen:
            errors.append(f"{where}: duplicate name")
        seen.add(m["name"])
        kind = m.get("kind")
        if kind == "counter":
            if not is_int(m.get("value")) or m["value"] < 0:
                errors.append(f"{where}: counter value {m.get('value')!r} is not a count")
        elif kind == "gauge":
            if not is_number(m.get("value")):
                errors.append(f"{where}: gauge value {m.get('value')!r} is not a number")
        elif kind == "histogram":
            errors += [f"{where}: {e}" for e in check_histogram(m)]
        else:
            errors.append(f"{where}: unknown kind {kind!r}")
    return errors


def check_histogram(h) -> list[str]:
    if not is_int(h.get("count")) or not is_int(h.get("overflow")):
        return ["count and overflow must be integers"]
    if not all(is_number(h.get(k)) for k in ("sum", "min", "max")):
        return ["sum, min and max must be numbers"]
    buckets = h.get("buckets")
    if not isinstance(buckets, list) or not all(
            isinstance(b, dict) and is_number(b.get("le")) and is_int(b.get("count"))
            for b in buckets):
        return ["buckets must be a list of {\"le\": number, \"count\": integer}"]
    errors = []
    bounds = [b["le"] for b in buckets]
    if any(a >= b for a, b in zip(bounds, bounds[1:])):
        errors.append(f"bucket bounds {bounds} do not ascend strictly")
    total = sum(b["count"] for b in buckets) + h["overflow"]
    if total != h["count"]:
        errors.append(f"bucket counts plus overflow are {total}, count is {h['count']}")
    return errors


def methods_of(doc) -> list | None:
    if (doc.get("schema") != 1 or doc.get("ticks_per_second") != 1_000_000_000
            or not isinstance(doc.get("methods"), list)):
        return None
    return doc["methods"]


def check_spans(doc) -> list[str]:
    methods = methods_of(doc)
    if methods is None:
        return ["top level must be {\"schema\": 1, \"ticks_per_second\": 1000000000, "
                "\"methods\": [...]}"]
    errors: list[str] = []
    for m in methods:
        name = m.get("name")
        errors += [f"method {name!r}: {e}" for e in check_span_method(m)]
    return errors


def check_span_method(m) -> list[str]:
    spans = m.get("spans")
    if not isinstance(spans, list):
        return ["no spans array"]
    errors: list[str] = []
    if m.get("span_count") != len(spans):
        errors.append(f"span_count {m.get('span_count')} but {len(spans)} spans")
    kinds = dict.fromkeys(ATTR_KINDS, 0)
    nodes: dict[str, int] = {}
    total = 0
    makespan = 0
    for i, s in enumerate(spans):
        where = f"span {i}"
        if s.get("id") != i:
            errors.append(f"{where}: id {s.get('id')!r} (ids must be dense)")
        parent = s.get("parent")
        if not is_int(parent) or not -1 <= parent < i:
            errors.append(f"{where}: parent {parent!r} is not -1 or an earlier span")
        if s.get("kind") not in SPAN_KINDS:
            errors.append(f"{where}: unknown kind {s.get('kind')!r}")
        start, end = s.get("start_ticks"), s.get("end_ticks")
        if not is_int(start) or not is_int(end) or start > end:
            errors.append(f"{where}: [{start!r}, {end!r}] is not an interval of ticks")
            continue
        makespan = max(makespan, end)
        breakdown = s.get("breakdown")
        tiled = False
        if not isinstance(breakdown, list):
            errors.append(f"{where}: no breakdown array")
            continue
        at = start
        for b in breakdown:
            if b.get("kind") not in ATTR_KINDS or b.get("start_ticks") != at or \
                    not is_int(b.get("end_ticks")) or b["end_ticks"] < at:
                errors.append(f"{where}: breakdown does not chain from {at} "
                              f"(slice {b!r})")
                break
            at = b["end_ticks"]
        else:
            if not breakdown or at == end:
                tiled = True
            else:
                errors.append(f"{where}: breakdown ends at {at}, span at {end}")
                tiled = False
        if parent != -1 or not tiled:
            continue
        # Top-level spans only: a child's slices are inside its parent's.
        total += end - start
        if not breakdown:
            kinds["other"] += end - start
        for b in breakdown:
            kinds[b["kind"]] += b["end_ticks"] - b["start_ticks"]
            if b.get("node", -1) != -1:
                key = str(b["node"])
                nodes[key] = nodes.get(key, 0) + b["end_ticks"] - b["start_ticks"]
    if m.get("makespan_ticks") != makespan:
        errors.append(f"makespan_ticks {m.get('makespan_ticks')} but spans end at {makespan}")
    attribution = m.get("attribution") or {}
    errors += check_totals(attribution, "attribution")
    if attribution.get("total_ticks") != total:
        errors.append(f"attribution total_ticks {attribution.get('total_ticks')} but "
                      f"top-level spans cover {total}")
    if attribution.get("kinds") != kinds:
        errors.append(f"attribution kinds {attribution.get('kinds')} but the "
                      f"top-level breakdowns sum to {kinds}")
    nodes = {n: t for n, t in nodes.items() if t != 0}
    if attribution.get("nodes") != nodes:
        errors.append(f"attribution nodes {attribution.get('nodes')} but the "
                      f"top-level breakdowns blame {nodes}")
    return errors


def check_totals(totals, label: str) -> list[str]:
    """The AttributionTotals shape: kinds in enum order summing to total_ticks."""
    kinds = totals.get("kinds")
    if not isinstance(kinds, dict) or tuple(kinds) != ATTR_KINDS or \
            not all(is_int(v) for v in kinds.values()):
        return [f"{label} kinds must list {', '.join(ATTR_KINDS)} as integers"]
    if sum(kinds.values()) != totals.get("total_ticks"):
        return [f"{label} kinds sum to {sum(kinds.values())}, "
                f"total_ticks is {totals.get('total_ticks')}"]
    nodes = totals.get("nodes")
    if not isinstance(nodes, dict) or not all(
            k.isdigit() and is_int(v) and v > 0 for k, v in nodes.items()):
        return [f"{label} nodes must map node ids to positive tick counts"]
    return []


def check_critical_path(doc) -> list[str]:
    methods = methods_of(doc)
    if methods is None:
        return ["top level must be {\"schema\": 1, \"ticks_per_second\": 1000000000, "
                "\"methods\": [...]}"]
    errors: list[str] = []
    for m in methods:
        errors += [f"method {m.get('name')!r}: {e}" for e in check_path_method(m)]
    return errors


def check_path_method(m) -> list[str]:
    steps = m.get("steps")
    if not isinstance(steps, list):
        return ["no steps array"]
    errors: list[str] = []
    covered = 0
    prev_end = None
    for i, step in enumerate(steps):
        start, end = step.get("start_ticks"), step.get("end_ticks")
        if not is_int(start) or not is_int(end) or start > end:
            errors.append(f"step {i}: [{start!r}, {end!r}] is not an interval of ticks")
            continue
        if prev_end is not None and start != prev_end:
            errors.append(f"step {i}: starts at {start}, previous step ends at {prev_end}")
        if step.get("span") == -1 and step.get("name") != "idle":
            errors.append(f"step {i}: span -1 must be an idle step")
        prev_end = end
        covered += end - start
    if steps and prev_end != m.get("makespan_ticks"):
        errors.append(f"last step ends at {prev_end}, makespan_ticks is "
                      f"{m.get('makespan_ticks')}")
    blame = m.get("blame") or {}
    errors += check_totals(blame, "blame")
    if blame.get("total_ticks") != covered:
        errors.append(f"blame total_ticks {blame.get('total_ticks')} but the steps "
                      f"cover {covered}")
    return errors


CHECKS = {"metrics": check_metrics, "spans": check_spans,
          "critical-path": check_critical_path}


def validate(kind: str, path: str) -> list[str]:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"cannot parse {path}: {exc}"]
    if not isinstance(doc, dict):
        return [f"{path}: top level must be an object"]
    return [f"{path}: {e}" for e in CHECKS[kind](doc)]


def main(argv: list[str]) -> int:
    pairs = list(zip(argv[1::2], argv[2::2]))
    if not pairs or len(argv) % 2 != 1 or any(kind not in CHECKS for kind, _ in pairs):
        print(__doc__, file=sys.stderr)
        return 2
    rc = 0
    for kind, path in pairs:
        errors = validate(kind, path)
        for err in errors:
            print(f"check_sink_json: {err}")
        if errors:
            rc = 1
        else:
            print(f"check_sink_json: {path} ok ({kind})")
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv))
