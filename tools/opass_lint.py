#!/usr/bin/env python3
"""opass_lint — project-specific hygiene rules static analyzers can't express.

Rules (all scoped to src/ unless noted):

  bare-assert       src/ must not use assert(); failures must throw through
                    OPASS_REQUIRE / OPASS_CHECK (src/common/require.hpp) so
                    release builds keep their invariants. static_assert is
                    fine (it is a compile-time check).
  nondeterminism    No std::rand / srand / std::random_device / system_clock /
                    time(...) seeding outside src/common/rng.* — every random
                    or time-derived value must flow through the seeded Rng so
                    experiments replay bit-identically.
  pragma-once       Every header carries #pragma once.
  include-order     In a .cpp: the first include is the file's own header
                    (self-containment witness); afterwards no <system>
                    include may follow a "project" include, i.e. the system
                    block precedes the project block.
  options-last      src/opass/ headers only: a `FooOptions` function
                    parameter must be the last parameter (the planner API
                    convention — options structs trail, usually defaulted
                    `= {}`). Internal .cpp helpers may order differently
                    (e.g. an accumulator out-param last).
  nodiscard-plan    src/opass/ headers only: every `struct FooPlan` /
                    `struct FooResult` must be declared
                    `struct [[nodiscard]] Foo...` — plans are computed for
                    their value; silently dropping one is always a bug.
  nodiscard-status  src/obs/ headers only: every `struct FooStatus` must be
                    declared `struct [[nodiscard]] Foo...` — an ignored
                    exporter status silently swallows an I/O failure.
  timeline-metric-name
                    String literals starting with "timeline." must follow the
                    series taxonomy `timeline.<subsystem>.<metric>` — at least
                    three dot-separated [a-z0-9_]+ segments — or be a prefix
                    form ending in "." (used to splice in a node/process id).
                    A malformed literal would pass compilation but throw at
                    recorder registration or silently miss exporter filters.
  facade-only       (scoped to src/ outside src/opass/, plus bench/,
                    examples/ and tests/) Planning goes through the
                    core::plan() facade; the matchers behind it
                    (assign_single_data, assign_single_data_weighted,
                    assign_single_data_rack_aware, assign_multi_data, declared
                    in src/opass/matchers.hpp) are src/opass/ internals. A
                    direct call elsewhere bypasses PlanRequest validation,
                    workspace lending, the stats pass, and the one place
                    where new planners get wired in.
  no-raw-thread     Raw threading primitives (std::thread / std::mutex /
                    std::atomic / std::condition_variable / the std lock
                    guards) are banned everywhere in src/: the program is
                    single-threaded by design (DESIGN.md §12), and
                    parallelism comes back only together with a benchmark
                    workload that shows its gain. A deliberate exception
                    carries an inline allow(no-raw-thread) marker.
  replica-scan      src/opass/ only: no `has_replica_on` call inside a loop
                    over every process (`for (...; p < m; ...)`). Testing each
                    task against all m processes is the O(tasks x processes)
                    edge discovery the batch planners dropped; find a task's
                    co-located processes from its replicas through
                    processes_by_node() (opass/process_index.hpp) instead.
                    Evaluating a finished assignment — one call per assigned
                    task, as plan_audit and assignment_stats do — is fine.
  fig5-solve        src/opass/ only: a max-flow solve (`graph::max_flow(`,
                    qualified or not) is called only from
                    the shared Fig. 5 solve (src/opass/fig5.*) and from the
                    planning service's tenant-layered network
                    (src/opass/service.cpp). Every other planner emits its
                    locality edges into solve_fig5(), which owns the node
                    numbering and the edge-id read-back, instead of building,
                    solving and reading back the network by hand again.
  pq-top-copy       No by-value initialization from `.top()`:
                    `auto fn = q.top();` (or a `std::function<...>` copy of
                    `.top().fn`) deep-copies the element — and since
                    priority_queue::top() returns a *const* reference,
                    std::move cannot rescue it either. Bind a const reference,
                    or use a vector heap (std::pop_heap + move from the back)
                    as the event loops in src/sim do.
  single-pipeline   src/exp/ holds exactly one runtime::execute( call site:
                    the phase() of its one Run pipeline (DESIGN.md §8). Every
                    scenario — static plans, dynamic lists, ParaView steps,
                    iterative epochs — runs its phases through it, so a second
                    call site (a scenario body wiring its own cluster,
                    timeline and sinks again) is flagged, one finding per
                    extra site.
  one-probe         src/ declares one observer interface, opass::Probe
                    (src/common/probe.hpp): a class declaring a pure-virtual
                    `on_*` method anywhere else is a second one. Subsystems
                    report their transitions as plain ProbeEvent records to
                    the Probe they are given, and a consumer that needs more
                    reads the emitter's accessors, so a new emitter or sink
                    adds an event kind, not an interface.
  sink-writer       The four sink renderers (src/obs/metrics_io.cpp,
                    chrome_trace.cpp, attribution.cpp and report.cpp) write
                    every number through obs::SinkWriter (std::to_chars into
                    the caller's string). `std::to_string(`, `snprintf(` and
                    `+ format_double(` there build a temporary string per
                    field, which is what made the sinks slow. fault_log.cpp
                    is out of scope: its instant labels keep the pinned
                    std::to_string(double) format.
  linear-detach     src/sim/ only: no `std::find` or `std::remove` (and
                    their `_if` forms, plain or std::ranges::) inside the
                    body of `retire_slot` or `detach`, whatever list it
                    searches. Every flow keeps its position in the list of
                    each resource on its path, so FlowSimulator detaches a
                    retiring flow in O(path); a search there makes each
                    retirement O(flows on the resource), which a heartbeat
                    round that retires a thousand messages on one NIC pays
                    squared.
  arc-partner       (scoped to src/graph/, src/opass/ and tests/support/) No
                    `^ 1` on an edge or arc id: arcs are laid out in CSR
                    order, so an arc's partner (the reverse of its edge) is
                    FlowNetwork::partner(a), not a ^ 1. The old pairing still
                    compiles but names the wrong arc.

Usage:
  opass_lint.py <repo-root>     lint the tree rooted there (exit 1 on findings)
  opass_lint.py --self-test     seed one violation per rule into a temp tree
                                and verify each is caught (exit 1 if not)

The per-header self-containment *compile* gate lives in
cmake/header_checks.cmake; this linter covers the textual rules.
"""

from __future__ import annotations

import pathlib
import re
import sys
import tempfile

# The C++ scrubber, the Finding type, and the inline-suppression syntax are
# shared with tools/opass_analyze.py (see tools/opass_cpp.py).
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
from opass_cpp import Finding, apply_suppressions, scrub  # noqa: E402

# --- rules ------------------------------------------------------------------

BARE_ASSERT = re.compile(r"(?<![\w_])assert\s*\(")
NONDETERMINISM = re.compile(
    r"std::rand\b|(?<![\w_])srand\s*\(|std::random_device\b"
    r"|std::chrono::system_clock\b|(?<![\w_])time\s*\(\s*(?:NULL|nullptr|0)\s*\)"
)
PRAGMA_ONCE = re.compile(r"^\s*#\s*pragma\s+once\s*$", re.MULTILINE)
INCLUDE = re.compile(r'^\s*#\s*include\s+(<[^>]+>|"[^"]+")\s*$', re.MULTILINE)
# An Options-typed parameter that is *followed by a comma*, i.e. not the last
# parameter: `FooOptions options,` / `const FooOptions& options,`. Brace
# inits (`FooOptions{...}`) and declarations (`FooOptions o;`) don't match —
# the type must be followed by a bare identifier and then a comma.
OPTIONS_NOT_LAST = re.compile(r"\b(\w+Options)\s*&?\s+\w+\s*,")
# `struct FooPlan` / `struct FooResult` with the name directly after
# `struct`; the compliant spelling `struct [[nodiscard]] FooPlan` puts the
# attribute in between and does not match.
PLAIN_PLAN_STRUCT = re.compile(r"\bstruct\s+(\w+(?:Plan|Result))\b")
# Same mechanics for exporter status types in src/obs/: `struct FooStatus`
# matches, `struct [[nodiscard]] FooStatus` does not.
PLAIN_STATUS_STRUCT = re.compile(r"\bstruct\s+(\w+Status)\b")
# Any string literal whose content starts with "timeline." — candidates for
# the series-name taxonomy check. The two compliant shapes are checked
# against the literal's content afterwards.
TIMELINE_LITERAL = re.compile(r'"(timeline\.[^"\n]*)"')
TIMELINE_FULL_NAME = re.compile(r"timeline\.[a-z0-9_]+(?:\.[a-z0-9_]+)+")
TIMELINE_PREFIX = re.compile(r"timeline\.(?:[a-z0-9_]+\.)*")
# Any string literal whose content starts with a span-layer prefix ("exec."
# or "svc.") — candidates for the span-name taxonomy check. The compliant
# shape is checked against the literal's content afterwards: exactly three
# dot-separated segments (layer.noun.verb), each [a-z][a-z0-9_]* — mirroring
# obs::valid_span_name, which SpanLog::add enforces at runtime.
SPAN_LITERAL = re.compile(r'"((?:exec|svc)\.[^"\n]*)"')
SPAN_FULL_NAME = re.compile(r"(?:exec|svc)\.[a-z][a-z0-9_]*\.[a-z][a-z0-9_]*")
# A direct call of a matcher declared in src/opass/matchers.hpp:
# `assign_single_data(...)`, optionally `core::`-qualified. The facade spelling `core::plan(...)` does
# not match; prose mentions live in comments, which scrub() blanks out.
DIRECT_PLANNER_CALL = re.compile(
    r"\b(?:core\s*::\s*)?"
    r"(assign_(?:single_data(?:_weighted|_rack_aware)?|multi_data))\s*\(")
# A by-value declaration initialized from `.top()`: `auto fn = q.top();`,
# `std::function<void()> fn = q.top().fn;`. Reference bindings don't match —
# `auto` / `std::function<...>` must be directly followed by the identifier,
# so `const auto& fn = ...` and `auto& fn = ...` stay clean. `.top()` anywhere
# on the right-hand side triggers, including inside std::move(...), because
# priority_queue::top() returns a const reference and the "move" still copies.
PQ_TOP_COPY = re.compile(
    r"\b(?:auto|std::function\s*<[^;{}=]*>)\s+\w+\s*=\s*[^;{}\n]*\.top\s*\(\s*\)")
# The condition of a counted `for` over every process: `p < m` (any loop
# variable name, bound exactly `m`, the planners' process count).
EVERY_PROCESS_COND = re.compile(r"\s*\w+\s*<\s*m\s*")
FOR_HEADER = re.compile(r"\bfor\s*\(")
REPLICA_TEST = re.compile(r"\bhas_replica_on\s*\(")
# A max-flow solve: `graph::max_flow(`, also unqualified (argument-dependent
# lookup finds graph:: from a FlowWorkspace argument). Member calls and longer
# identifiers (`run_max_flow(`) do not match.
MAX_FLOW_CALL = re.compile(r"(?<![\w.>])(?:(?:opass\s*::\s*)?graph\s*::\s*)?max_flow\s*\(")
# The files allowed to solve a flow network under src/opass/.
FIG5_SOLVE_HOMES = (
    "src/opass/fig5.hpp",
    "src/opass/fig5.cpp",
    "src/opass/service.cpp",
)
# A call of the executor's entry point (comments and strings are scrubbed).
EXECUTE_CALL = re.compile(r"\bruntime\s*::\s*execute\s*\(")
# A pure-virtual `on_*` method declaration: `virtual void on_x(...) = 0;`
# (const/noexcept qualifiers allowed). Overrides and non-pure virtuals do not
# match.
PURE_VIRTUAL_ON = re.compile(
    r"\bvirtual\b[^;{}]*?\b(on_\w+)\s*\([^;{}]*\)[^;{}=]*=\s*0\s*;")
# The one file allowed to declare an observer interface.
ONE_PROBE_HOME = "src/common/probe.hpp"
# Per-field string formatting in a sink renderer: each builds a temporary
# std::string instead of writing through obs::SinkWriter.
SINK_FORMAT = re.compile(
    r"\bstd\s*::\s*to_string\s*\(|(?<![\w])(?:std\s*::\s*)?snprintf\s*\("
    r"|\+\s*(?:obs\s*::\s*)?format_double\s*\(")
# The renderers sink-writer covers.
SINK_RENDERERS = (
    "src/obs/metrics_io.cpp",
    "src/obs/chrome_trace.cpp",
    "src/obs/attribution.cpp",
    "src/obs/report.cpp",
)
# The functions that take a retiring flow off its resources' lists, and a
# linear search or removal anywhere in their bodies.
DETACH_FUNCTION = re.compile(r"\b(retire_slot|detach)\s*\(")
LINEAR_SEARCH = re.compile(r"\bstd\s*::\s*(?:ranges\s*::\s*)?((?:find|remove)(?:_if)?)\s*\(")
# XOR with 1 (`h ^ 1`, `a ^= 1u`): the half-edge pairing of an adjacency
# layout where an edge's two arcs sat side by side. `^ 10` does not match.
XOR_ONE = re.compile(r"\^=?\s*1[uUlL]*\b")
# Where arc ids live: the flow core, its planners, and the test oracles.
ARC_PARTNER_SCOPE = ("src/graph/", "src/opass/", "tests/support/")
# Raw threading vocabulary. std::atomic covers std::atomic<T>, the _flag /
# _bool /... aliases and the free atomic_* functions via the \w* tail.
RAW_THREAD = re.compile(
    r"std::(?:jthread\b|thread\b|mutex\b|shared_mutex\b|recursive_mutex\b"
    r"|timed_mutex\b|condition_variable(?:_any)?\b|atomic\w*\b"
    r"|lock_guard\b|unique_lock\b|scoped_lock\b|shared_lock\b|call_once\b"
    r"|once_flag\b|future\b|promise\b|async\b|counting_semaphore\b"
    r"|binary_semaphore\b|barrier\b|latch\b)")
# Files allowed to use the raw threading vocabulary: none, since the program
# is single-threaded.
RAW_THREAD_EXEMPT: tuple = ()


def _line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


def check_bare_assert(path: pathlib.Path, text: str, findings: list):
    for m in BARE_ASSERT.finditer(scrub(text)):
        findings.append(
            Finding(path, _line_of(text, m.start()), "bare-assert",
                    "use OPASS_REQUIRE / OPASS_CHECK from common/require.hpp, "
                    "not assert()"))


def check_nondeterminism(path: pathlib.Path, text: str, findings: list):
    rel = path.as_posix()
    if "/common/rng." in rel:
        return  # the one sanctioned wrapper
    for m in NONDETERMINISM.finditer(scrub(text)):
        findings.append(
            Finding(path, _line_of(text, m.start()), "nondeterminism",
                    f"'{m.group(0).strip()}' bypasses common/rng — experiments "
                    "must replay from a seed"))


def check_pragma_once(path: pathlib.Path, text: str, findings: list):
    if path.suffix == ".hpp" and not PRAGMA_ONCE.search(text):
        findings.append(Finding(path, 1, "pragma-once", "header lacks #pragma once"))


def check_include_order(path: pathlib.Path, src_root: pathlib.Path, text: str, findings: list):
    if path.suffix != ".cpp":
        return
    includes = [(m.group(1), _line_of(text, m.start()))
                for m in INCLUDE.finditer(scrub(text, keep_strings=True))]
    if not includes:
        return
    own = path.relative_to(src_root).with_suffix(".hpp").as_posix()
    first, first_line = includes[0]
    has_own_header = (src_root / own).exists()
    if has_own_header and first != f'"{own}"':
        findings.append(
            Finding(path, first_line, "include-order",
                    f'first include must be the file\'s own header "{own}" '
                    "(self-containment witness)"))
        return
    rest = includes[1:] if has_own_header else includes
    seen_project = None
    for inc, line in rest:
        if inc.startswith('"') and inc != f'"{own}"':
            seen_project = (inc, line)
        elif inc.startswith("<") and seen_project is not None:
            findings.append(
                Finding(path, line, "include-order",
                        f"system include {inc} appears after project include "
                        f"{seen_project[0]} (line {seen_project[1]}); keep the "
                        "system block first"))
            return


def check_options_last(path: pathlib.Path, src_root: pathlib.Path, text: str, findings: list):
    if path.suffix != ".hpp" or "opass" not in path.relative_to(src_root).parts[:1]:
        return
    for m in OPTIONS_NOT_LAST.finditer(scrub(text)):
        findings.append(
            Finding(path, _line_of(text, m.start()), "options-last",
                    f"parameter of type {m.group(1)} must be the last parameter "
                    "(options-last convention)"))


def check_nodiscard_plan(path: pathlib.Path, src_root: pathlib.Path, text: str, findings: list):
    if path.suffix != ".hpp" or "opass" not in path.relative_to(src_root).parts[:1]:
        return
    for m in PLAIN_PLAN_STRUCT.finditer(scrub(text)):
        findings.append(
            Finding(path, _line_of(text, m.start()), "nodiscard-plan",
                    f"declare it 'struct [[nodiscard]] {m.group(1)}' — plan/result "
                    "types must not be silently dropped"))


def check_timeline_metric_name(path: pathlib.Path, text: str, findings: list):
    for m in TIMELINE_LITERAL.finditer(scrub(text, keep_strings=True)):
        name = m.group(1)
        if name.endswith("."):
            if TIMELINE_PREFIX.fullmatch(name):
                continue
        elif TIMELINE_FULL_NAME.fullmatch(name):
            continue
        findings.append(
            Finding(path, _line_of(text, m.start()), "timeline-metric-name",
                    f'"{name}" breaks the timeline.<subsystem>.<metric> '
                    "taxonomy (>= 3 dot-separated [a-z0-9_]+ segments, or a "
                    "splice prefix ending in '.')"))


def check_span_name(path: pathlib.Path, text: str, findings: list):
    for m in SPAN_LITERAL.finditer(scrub(text, keep_strings=True)):
        name = m.group(1)
        if SPAN_FULL_NAME.fullmatch(name):
            continue
        findings.append(
            Finding(path, _line_of(text, m.start()), "span-name",
                    f'"{name}" breaks the layer.noun.verb span taxonomy '
                    "(exactly 3 dot-separated [a-z][a-z0-9_]* segments; "
                    "SpanLog::add rejects it at runtime too)"))


def _close_paren(code: str, open_at: int) -> int:
    """Offset of the ')' matching the '(' at `open_at` (len(code) if none)."""
    depth = 0
    for i in range(open_at, len(code)):
        if code[i] == "(":
            depth += 1
        elif code[i] == ")":
            depth -= 1
            if depth == 0:
                return i
    return len(code)


def _statement_end(code: str, start: int) -> int:
    """End offset of the statement beginning at `start`: the brace block
    matching the first '{' outside parentheses, or the first ';' outside
    parentheses, whichever comes first. Nested `for`/`if` headers keep their
    semicolons inside parentheses, so `for (...) for (...) x();` ends at
    the inner statement's ';'."""
    paren = 0
    for i in range(start, len(code)):
        c = code[i]
        if c == "(":
            paren += 1
        elif c == ")":
            paren -= 1
        elif paren == 0 and c == ";":
            return i + 1
        elif paren == 0 and c == "{":
            depth = 0
            for j in range(i, len(code)):
                if code[j] == "{":
                    depth += 1
                elif code[j] == "}":
                    depth -= 1
                    if depth == 0:
                        return j + 1
            return len(code)
    return len(code)


def check_replica_scan(path: pathlib.Path, root: pathlib.Path, text: str, findings: list):
    if not path.relative_to(root).as_posix().startswith("src/opass/"):
        return
    code = scrub(text)
    reported = set()
    for m in FOR_HEADER.finditer(code):
        open_at = m.end() - 1
        close_at = _close_paren(code, open_at)
        clauses = code[open_at + 1:close_at].split(";")
        if len(clauses) != 3 or not EVERY_PROCESS_COND.fullmatch(clauses[1]):
            continue
        body_end = _statement_end(code, close_at + 1)
        for call in REPLICA_TEST.finditer(code, close_at + 1, body_end):
            if call.start() in reported:
                continue  # already inside an outer loop over every process
            reported.add(call.start())
            findings.append(
                Finding(path, _line_of(text, call.start()), "replica-scan",
                        "has_replica_on() inside a loop over every process is "
                        "an O(tasks x processes) scan; take the task's "
                        "co-located processes from its replicas via "
                        "processes_by_node() (opass/process_index.hpp)"))


def check_fig5_solve(path: pathlib.Path, root: pathlib.Path, text: str, findings: list):
    rel = path.relative_to(root).as_posix()
    if not rel.startswith("src/opass/") or rel in FIG5_SOLVE_HOMES:
        return
    for m in MAX_FLOW_CALL.finditer(scrub(text)):
        findings.append(
            Finding(path, _line_of(text, m.start()), "fig5-solve",
                    "max-flow solve outside the shared Fig. 5 solve; emit the "
                    "planner's locality edges into solve_fig5() (opass/fig5.hpp), "
                    "which owns the node numbering and the edge-id read-back"))


def check_pq_top_copy(path: pathlib.Path, text: str, findings: list):
    for m in PQ_TOP_COPY.finditer(scrub(text)):
        findings.append(
            Finding(path, _line_of(text, m.start()), "pq-top-copy",
                    "by-value init from .top() deep-copies the element (top() "
                    "returns a const reference, so std::move cannot help); bind "
                    "a const reference or pop_heap and move from the back"))


def check_no_raw_thread(path: pathlib.Path, root: pathlib.Path, text: str, findings: list):
    rel = path.relative_to(root).as_posix()
    if rel in RAW_THREAD_EXEMPT:
        return
    for m in RAW_THREAD.finditer(scrub(text)):
        findings.append(
            Finding(path, _line_of(text, m.start()), "no-raw-thread",
                    f"'{m.group(0)}' in src/ — the program is single-threaded "
                    "by design (DESIGN.md §12); bring parallelism back only "
                    "with a benchmark workload that shows the gain"))


def check_facade_only(path: pathlib.Path, root: pathlib.Path, text: str, findings: list):
    rel = path.relative_to(root).as_posix()
    if rel.startswith("src/opass/"):
        return  # the planners' own home — definitions and the facade itself
    for m in DIRECT_PLANNER_CALL.finditer(scrub(text)):
        findings.append(
            Finding(path, _line_of(text, m.start()), "facade-only",
                    f"direct {m.group(1)}() call bypasses the core::plan() "
                    "facade; route through plan() (PlanOptions selects the "
                    "planner, PlanResult::plan_wall_ms times the matcher)"))


def check_single_pipeline(root: pathlib.Path, texts: dict, findings: list):
    sites = []
    for path, text in texts.items():
        if path.relative_to(root).as_posix().startswith("src/exp/"):
            sites += [(path, _line_of(text, m.start()))
                      for m in EXECUTE_CALL.finditer(scrub(text))]
    for path, line in sites[1:]:
        first = sites[0]
        findings.append(
            Finding(path, line, "single-pipeline",
                    f"second runtime::execute() call site under src/exp/ (the "
                    f"first is {first[0].name}:{first[1]}); run the scenario's "
                    "phases through the one Run pipeline instead of wiring "
                    "another cluster, timeline and sink set"))


def check_one_probe(path: pathlib.Path, root: pathlib.Path, text: str, findings: list):
    if path.relative_to(root).as_posix() == ONE_PROBE_HOME:
        return
    for m in PURE_VIRTUAL_ON.finditer(scrub(text)):
        findings.append(
            Finding(path, _line_of(text, m.start()), "one-probe",
                    f"pure-virtual {m.group(1)}() declares a second observer "
                    "interface; emit ProbeEvent records to the opass::Probe "
                    f"of {ONE_PROBE_HOME} and add an event kind instead"))


def check_sink_writer(path: pathlib.Path, root: pathlib.Path, text: str, findings: list):
    if path.relative_to(root).as_posix() not in SINK_RENDERERS:
        return
    for m in SINK_FORMAT.finditer(scrub(text)):
        findings.append(
            Finding(path, _line_of(text, m.start()), "sink-writer",
                    f"'{' '.join(m.group(0).split())}' formats a field into a temporary "
                    "string; write it through obs::SinkWriter "
                    "(obs/metrics_io.hpp), which appends with std::to_chars"))


def check_arc_partner(path: pathlib.Path, root: pathlib.Path, text: str, findings: list):
    if not path.relative_to(root).as_posix().startswith(ARC_PARTNER_SCOPE):
        return
    for m in XOR_ONE.finditer(scrub(text)):
        findings.append(
            Finding(path, _line_of(text, m.start()), "arc-partner",
                    f"'{m.group(0)}' pairs arcs by id parity, but arcs are laid "
                    "out in CSR order; take the reverse arc from "
                    "FlowNetwork::partner(a)"))


def check_linear_detach(path: pathlib.Path, root: pathlib.Path, text: str, findings: list):
    if not path.relative_to(root).as_posix().startswith("src/sim/"):
        return
    code = scrub(text)
    for fn in DETACH_FUNCTION.finditer(code):
        # A call or declaration ends at its ';'; only a definition has a body.
        close_at = _close_paren(code, fn.end() - 1)
        for m in LINEAR_SEARCH.finditer(code, close_at + 1, _statement_end(code, close_at + 1)):
            findings.append(
                Finding(path, _line_of(text, m.start()), "linear-detach",
                        f"std::{m.group(1)}() in {fn.group(1)}(); each flow records "
                        "its position in every list on its path, so detach it by "
                        "position in O(path)"))


def check_nodiscard_status(path: pathlib.Path, src_root: pathlib.Path, text: str, findings: list):
    if path.suffix != ".hpp" or "obs" not in path.relative_to(src_root).parts[:1]:
        return
    for m in PLAIN_STATUS_STRUCT.finditer(scrub(text)):
        findings.append(
            Finding(path, _line_of(text, m.start()), "nodiscard-status",
                    f"declare it 'struct [[nodiscard]] {m.group(1)}' — exporter "
                    "status must not be silently dropped"))


# --- driver -----------------------------------------------------------------

def lint_tree(root: pathlib.Path) -> list:
    src_root = root / "src"
    findings: list = []
    if not src_root.is_dir():
        findings.append(Finding(root, 1, "layout", f"no src/ directory under {root}"))
        return findings
    texts: dict = {}
    for path in sorted(src_root.rglob("*")):
        if path.suffix not in (".hpp", ".cpp"):
            continue
        text = path.read_text(encoding="utf-8")
        texts[path] = text
        check_bare_assert(path, text, findings)
        check_nondeterminism(path, text, findings)
        check_pragma_once(path, text, findings)
        check_include_order(path, src_root, text, findings)
        check_options_last(path, src_root, text, findings)
        check_nodiscard_plan(path, src_root, text, findings)
        check_nodiscard_status(path, src_root, text, findings)
        check_timeline_metric_name(path, text, findings)
        check_span_name(path, text, findings)
        check_pq_top_copy(path, text, findings)
        check_replica_scan(path, root, text, findings)
        check_fig5_solve(path, root, text, findings)
        check_no_raw_thread(path, root, text, findings)
        check_facade_only(path, root, text, findings)
        check_one_probe(path, root, text, findings)
        check_sink_writer(path, root, text, findings)
        check_arc_partner(path, root, text, findings)
        check_linear_detach(path, root, text, findings)
    check_single_pipeline(root, texts, findings)
    # bench/, examples/ and tests/ consume the planner API, so only the
    # API-usage rule applies there, plus arc-partner in the test oracles.
    for tree in ("bench", "examples", "tests"):
        tree_root = root / tree
        if not tree_root.is_dir():
            continue
        for path in sorted(tree_root.rglob("*")):
            if path.suffix not in (".hpp", ".cpp"):
                continue
            text = path.read_text(encoding="utf-8")
            texts[path] = text
            check_facade_only(path, root, text, findings)
            check_arc_partner(path, root, text, findings)
    return apply_suppressions(findings, texts)


# --- self test --------------------------------------------------------------

_VIOLATIONS = {
    "bare-assert": ("bad_assert.cpp", "#include <cassert>\nvoid f(int x) { assert(x > 0); }\n"),
    "nondeterminism": ("bad_rand.cpp", "#include <cstdlib>\nint f() { return std::rand(); }\n"),
    "pragma-once": ("bad_guard.hpp", "struct NoGuard {};\n"),
    "include-order": (
        "bad_order.cpp",
        '#include "dfs/types.hpp"\n#include <vector>\nint g() { return 1; }\n',
    ),
    "options-last": (
        "opass/bad_options.hpp",
        "#pragma once\nvoid f(BadOptions options, int x);\n",
    ),
    "nodiscard-plan": (
        "opass/bad_plan.hpp",
        "#pragma once\nstruct BadPlan { int x; };\n",
    ),
    "nodiscard-status": (
        "obs/bad_status.hpp",
        "#pragma once\nstruct BadStatus { bool ok = true; };\n",
    ),
    "timeline-metric-name": (
        "obs/bad_series_name.cpp",
        "#include <string>\n"
        "// Two segments only, and uppercase — both break the taxonomy.\n"
        "const std::string kBad = \"timeline.ServeBytes\";\n",
    ),
    "span-name": (
        "obs/bad_span_name.cpp",
        "#include <string>\n"
        "// Two segments only, and a capitalized noun — both break the\n"
        "// layer.noun.verb taxonomy.\n"
        "const std::string kBadShort = \"exec.task\";\n"
        "const std::string kBadCase = \"svc.Job.queue\";\n",
    ),
    "facade-only": (
        "runtime/bad_direct_plan.cpp",
        '#include "opass/opass.hpp"\n'
        "int f() { return core::assign_single_data(nn, tasks, placement, rng).total; }\n",
    ),
    "no-raw-thread": (
        "sim/bad_raw_thread.cpp",
        "#include <mutex>\n"
        "std::mutex g_mu;\n"
        "void f() { std::lock_guard<std::mutex> lock(g_mu); }\n",
    ),
    "replica-scan": (
        "opass/bad_replica_scan.cpp",
        '#include "opass/service.hpp"\n'
        "void edges(const Chunk& chunk, const Placement& placement, Net& net, unsigned m) {\n"
        "  for (std::uint32_t p = 0; p < m; ++p) {\n"
        "    if (chunk.has_replica_on(placement[p])) net.add_edge(p);\n"
        "  }\n"
        "}\n",
    ),
    "fig5-solve": (
        "opass/bad_fig5_solve.cpp",
        '#include "graph/max_flow.hpp"\n'
        "unsigned match(graph::FlowWorkspace& ws) {\n"
        "  ws.network.add_edge(0, 2, 1);\n"
        "  return graph::max_flow(ws, 0, 1);\n"
        "}\n",
    ),
    "single-pipeline": (
        "exp/bad_second_pipeline.cpp",
        '#include "runtime/executor.hpp"\n'
        "void a(Cluster& c, Source& s) { runtime::execute(c, nn, tasks, s, rng, ec); }\n"
        "void b(Cluster& c, Source& s) { runtime::execute(c, nn, tasks, s, rng, ec); }\n",
    ),
    "one-probe": (
        "sim/bad_second_probe.hpp",
        "#pragma once\n"
        "class ReadProbe {\n"
        " public:\n"
        "  virtual ~ReadProbe() = default;\n"
        "  virtual void on_read_issued(double now, unsigned server) const = 0;\n"
        "};\n",
    ),
    "sink-writer": (
        "obs/chrome_trace.cpp",
        "#include <string>\n"
        "std::string args(unsigned long chunk, double value) {\n"
        "  return \"{\\\"chunk\\\": \" + std::to_string(chunk) +\n"
        "         \", \\\"value\\\": \" + format_double(value) + \"}\";\n"
        "}\n",
    ),
    "arc-partner": (
        "graph/bad_arc_partner.cpp",
        '#include "graph/flow_network.hpp"\n'
        "NodeIdx tail(const FlowNetwork& net, ArcIdx h) { return net.residual_to(h ^ 1); }\n",
    ),
    "linear-detach": (
        "sim/bad_linear_detach.cpp",
        "#include <algorithm>\n"
        "void FlowSimulator::retire_slot(std::uint32_t slot) {\n"
        "  for (ResourceId r : flows_[slot].resources) {\n"
        "    std::vector<std::uint32_t>& list = resources_[r].flows;\n"
        "    auto it = std::find(list.begin(), list.end(), slot);\n"
        "    *it = list.back();\n"
        "    list.pop_back();\n"
        "  }\n"
        "}\n",
    ),
    "pq-top-copy": (
        "bad_top_copy.cpp",
        "#include <functional>\n#include <queue>\n"
        "void f(std::priority_queue<std::function<void()>>& q) {\n"
        "  auto fn = q.top();\n  q.pop();\n  fn();\n}\n",
    ),
}

_CLEANS = (
    (
        # What linear-detach must NOT flag under src/sim/: a search outside
        # the detach functions, their declarations and calls, and prose
        # naming the rule.
        "sim/clean_detach.cpp",
        "#include <algorithm>\n"
        "void detach(std::uint32_t slot, std::size_t i);\n"
        "// retire_slot() never calls std::find(list.begin(), ...).\n"
        "void FlowSimulator::retire_slot(std::uint32_t slot) {\n"
        "  for (std::size_t i = 0; i < flows_[slot].resources.size(); ++i) detach(slot, i);\n"
        "}\n"
        "bool seen(const std::vector<double>& times, double when) {\n"
        "  return std::find(times.begin(), times.end(), when) != times.end();\n"
        "}\n",
    ),
    (
        "clean.cpp",
        '#include <vector>\n\n#include "common/require.hpp"\n'
        "void h(int x) { OPASS_REQUIRE(x > 0, \"x\"); }\n",
    ),
    (
        # The compliant planner-API spellings the new rules must NOT flag:
        # options-last (defaulted, trailing), brace init, member declaration,
        # and a [[nodiscard]] plan struct.
        "opass/clean_api.hpp",
        "#pragma once\n"
        "struct GoodOptions { int knob = 0; };\n"
        "struct [[nodiscard]] GoodPlan { int value = 0; };\n"
        "GoodPlan g(int x, GoodOptions options = {});\n"
        "inline GoodPlan h(int x) { return g(x, GoodOptions{1}); }\n"
        "struct Holder { GoodOptions options_; };\n",
    ),
    (
        # The compliant exporter-status spelling nodiscard-status must NOT flag.
        "obs/clean_status.hpp",
        "#pragma once\n"
        "struct [[nodiscard]] GoodStatus { bool ok = true; };\n"
        "GoodStatus write_something(int x);\n",
    ),
    (
        # Compliant series-name spellings timeline-metric-name must NOT flag:
        # a full 3-segment name, a deeper name, and a splice prefix.
        "obs/clean_series_name.cpp",
        "#include <string>\n"
        "const std::string kRate = \"timeline.cluster.serve_bytes_per_s\";\n"
        "const std::string kDepth = \"timeline.executor.process.0.depth\";\n"
        "std::string per_node(int n) {\n"
        "  return \"timeline.cluster.node.\" + std::to_string(n);\n"
        "}\n",
    ),
    (
        # Compliant span-name spellings span-name must NOT flag: the five
        # taxonomy names SpanLog::add accepts (exactly three [a-z][a-z0-9_]*
        # segments). A literal like "executive.summary" has no exec./svc.
        # prefix, so it is out of the rule's scope by construction.
        "obs/clean_span_name.cpp",
        "#include <string>\n"
        "const std::string kTask = \"exec.task.run\";\n"
        "const std::string kRead = \"exec.read.serve\";\n"
        "const std::string kWait = \"exec.wave.wait\";\n"
        "const std::string kQueue = \"svc.job.queue\";\n"
        "const std::string kPlan = \"svc.job.plan\";\n",
    ),
    (
        # src/opass/ internals may call the matchers directly (the facade is
        # implemented in terms of them), and the facade spelling
        # core::plan(...) must never match facade-only anywhere.
        "opass/clean_internal_call.cpp",
        '#include "opass/planner.hpp"\n'
        "int internal() { return assign_single_data_weighted(nn, tasks, placement, rng).n; }\n"
        "int facade() { return core::plan(request).locally_matched; }\n",
    ),
    (
        # What replica-scan must NOT flag: evaluating a finished assignment
        # (one has_replica_on per assigned task, as plan_audit does), a loop
        # over every process whose single-statement body ends before a later
        # replica test, and a task loop bounded by something other than m.
        "opass/clean_replica_eval.cpp",
        '#include "opass/plan_audit.hpp"\n'
        "Bytes local(const Assignment& a, const Placement& placement, const Chunk& chunk,\n"
        "            unsigned m, unsigned b) {\n"
        "  Bytes bytes = 0;\n"
        "  for (std::size_t p = 0; p < a.size(); ++p) {\n"
        "    for (auto t : a[p])\n"
        "      if (chunk.has_replica_on(placement[p])) bytes += t;\n"
        "  }\n"
        "  for (std::uint32_t p = 0; p < m; ++p) bytes += p;\n"
        "  for (std::uint32_t k = 0; k < b; ++k)\n"
        "    if (chunk.has_replica_on(placement[k % m])) ++bytes;\n"
        "  return bytes;\n"
        "}\n",
    ),
    (
        # The shared solve is the one home fig5-solve allows under src/opass/.
        "opass/fig5.cpp",
        '#include "graph/max_flow.hpp"\n'
        "long solve(graph::FlowWorkspace& ws) { return graph::max_flow(ws, 0, 1); }\n",
    ),
    (
        # The service's tenant-layered network is a different shape and keeps
        # its own solves.
        "opass/service.cpp",
        '#include "graph/max_flow.hpp"\n'
        "long budget(graph::FlowWorkspace& ws) { return graph::max_flow(ws, 0, 1); }\n",
    ),
    (
        # What fig5-solve must NOT flag under src/opass/: prose and string
        # mentions, a solve_fig5() call, and longer identifiers.
        "opass/clean_fig5_caller.cpp",
        '#include "opass/fig5.hpp"\n'
        "// solve_fig5() wraps graph::max_flow(ws, s, t).\n"
        'const char* kWhy = "graph::max_flow(";\n'
        "void plan(graph::FlowWorkspace& ws) {\n"
        "  (void)solve_fig5(ws, caps, unit, edges);\n"
        "  (void)run_max_flow(ws);\n"
        "}\n",
    ),
    (
        # Outside src/opass/ the rule does not apply.
        "graph/clean_solver_user.cpp",
        '#include "graph/max_flow.hpp"\n'
        "long solve(FlowWorkspace& ws) { return graph::max_flow(ws, 0, 1); }\n",
    ),
    (
        # What arc-partner must NOT flag: partner(), prose and strings naming
        # the old pairing, and XOR with anything but 1.
        "opass/clean_arc_partner.cpp",
        '#include "graph/flow_network.hpp"\n'
        "// Not h ^ 1: arcs are in CSR order.\n"
        'const char* kOld = "h ^ 1";\n'
        "NodeIdx tail(const FlowNetwork& net, ArcIdx a) { return net.residual_to(net.partner(a)); }\n"
        "unsigned mix(unsigned h) { return (h ^ 10) ^ 2u; }\n",
    ),
    (
        # Outside the flow code a parity flip is just arithmetic.
        "sim/clean_parity_flip.cpp",
        "unsigned other_side(unsigned side) { return side ^ 1; }\n",
    ),
    (
        # What single-pipeline must NOT flag: mentions of runtime::execute( in
        # comments and strings under src/exp/, and call sites outside it.
        "exp/clean_pipeline_mentions.cpp",
        "// Run::phase is the one runtime::execute(...) call site.\n"
        'const char* kWhere = "runtime::execute(";\n',
    ),
    (
        "runtime/clean_execute_callers.cpp",
        '#include "runtime/executor.hpp"\n'
        "void a(Cluster& c, Source& s) { runtime::execute(c, nn, tasks, s, rng, ec); }\n"
        "void b(Cluster& c, Source& s) { runtime::execute(c, nn, tasks, s, rng, ec); }\n",
    ),
    (
        # The one observer interface one-probe allows.
        "common/probe.hpp",
        "#pragma once\n"
        "class Probe {\n"
        " public:\n"
        "  virtual ~Probe() = default;\n"
        "  virtual void on_event(const ProbeEvent& event) = 0;\n"
        "};\n",
    ),
    (
        # What one-probe must NOT flag: a consumer's override, a non-pure
        # virtual hook, a pure-virtual method not named on_*, and prose.
        "runtime/clean_probe_users.hpp",
        "#pragma once\n"
        "// A second interface would declare virtual void on_x() = 0;\n"
        "class Timeline final : public Probe {\n"
        " public:\n"
        "  void on_event(const ProbeEvent& event) override;\n"
        "};\n"
        "class Source {\n"
        " public:\n"
        "  virtual ~Source() = default;\n"
        "  virtual void on_idle() {}\n"
        "  virtual int next_task(int process) = 0;\n"
        "};\n",
    ),
    (
        # What sink-writer must NOT flag in a renderer: writing through
        # SinkWriter, and prose or string mentions of the banned calls.
        "obs/attribution.cpp",
        '#include "obs/metrics_io.hpp"\n'
        "// Not std::to_string(v) or snprintf(buf, n, fmt, v) + format_double(x).\n"
        "void row(std::string& out, long ticks, double share) {\n"
        "  SinkWriter(out) << \"std::to_string(\" << ticks << ' ' << share;\n"
        "}\n",
    ),
    (
        # Outside the four renderers the rule does not apply: the fault log's
        # instant labels keep their pinned std::to_string(double) format.
        "obs/fault_log.cpp",
        "#include <string>\n"
        "std::string label(double factor) { return \"x\" + std::to_string(factor); }\n",
    ),
    (
        # Reference bindings from .top() are the compliant spelling pq-top-copy
        # must NOT flag; copying a cheap scalar after the reference is fine too.
        "clean_top_ref.cpp",
        "#include <queue>\n"
        "int peek(std::priority_queue<int>& q) {\n"
        "  const auto& t = q.top();\n"
        "  int copy = t;\n"
        "  return copy;\n"
        "}\n",
    ),
)


# Inline-suppression contract: the trailing marker on line 2 and the
# stand-alone marker above line 5 silence those two bare asserts; the
# unsuppressed sibling on line 7 must still be caught — a suppression must
# never widen beyond the line it covers. The allow(nondeterminism) marker on
# line 7 names the wrong rule, so it must not silence a bare-assert finding.
_SUPPRESSED = (
    "suppressed.cpp",
    "#include <cassert>\n"
    "void a(int x) { assert(x > 0); }  // opass-lint: allow(bare-assert)\n"
    "\n"
    "// opass-lint: allow(bare-assert)\n"
    "void b(int x) { assert(x > 1); }\n"
    "\n"
    "void c(int x) { assert(x > 2); }  // opass-lint: allow(nondeterminism)\n",
)
_SUPPRESSED_CAUGHT_LINE = 7

# facade-only reaches tests/: a unit test plans through core::plan() too.
_TESTS_VIOLATION = (
    "tests/opass/bad_direct_plan_test.cpp",
    '#include "opass/opass.hpp"\n'
    "TEST(Bad, Direct) { (void)core::assign_multi_data(nn, tasks, placement); }\n",
)
# arc-partner reaches the test oracles in tests/support/.
_SUPPORT_VIOLATION = (
    "tests/support/bad_oracle.cpp",
    '#include "graph/flow_network.hpp"\n'
    "void undo(FlowNetwork& net, ArcIdx h) { net.push(h ^ 1, 1); }\n",
)


def self_test() -> int:
    failures = 0
    with tempfile.TemporaryDirectory(prefix="opass_lint_selftest.") as tmp:
        root = pathlib.Path(tmp)
        src = root / "src"
        src.mkdir()
        for _, (name, content) in _VIOLATIONS.items():
            (src / name).parent.mkdir(parents=True, exist_ok=True)
            (src / name).write_text(content, encoding="utf-8")
        clean_names = set()
        for name, content in _CLEANS:
            (src / name).parent.mkdir(parents=True, exist_ok=True)
            (src / name).write_text(content, encoding="utf-8")
            clean_names.add(pathlib.Path(name).name)
        (src / _SUPPRESSED[0]).write_text(_SUPPRESSED[1], encoding="utf-8")
        tests_bad = root / _TESTS_VIOLATION[0]
        tests_bad.parent.mkdir(parents=True)
        tests_bad.write_text(_TESTS_VIOLATION[1], encoding="utf-8")
        support_bad = root / _SUPPORT_VIOLATION[0]
        support_bad.parent.mkdir(parents=True)
        support_bad.write_text(_SUPPORT_VIOLATION[1], encoding="utf-8")

        findings = lint_tree(root)
        suppressed_hits = sorted(
            f.line for f in findings if f.path.name == _SUPPRESSED[0])
        if suppressed_hits == [_SUPPRESSED_CAUGHT_LINE]:
            print("self-test: inline suppression silences its line, sibling "
                  "still caught")
        else:
            print(f"self-test: FAIL — suppression file expected a finding on "
                  f"line {_SUPPRESSED_CAUGHT_LINE} only, got {suppressed_hits}")
            failures += 1
        if any(f.rule == "facade-only" and f.path == tests_bad for f in findings):
            print("self-test: rule 'facade-only' caught its seeded violation "
                  "under tests/")
        else:
            print("self-test: FAIL — rule 'facade-only' missed its seeded "
                  "violation under tests/")
            failures += 1
        if any(f.rule == "arc-partner" and f.path == support_bad for f in findings):
            print("self-test: rule 'arc-partner' caught its seeded violation "
                  "under tests/support/")
        else:
            print("self-test: FAIL — rule 'arc-partner' missed its seeded "
                  "violation under tests/support/")
            failures += 1
        fired = {f.rule for f in findings}
        for rule in _VIOLATIONS:
            if rule in fired:
                print(f"self-test: rule '{rule}' caught its seeded violation")
            else:
                print(f"self-test: FAIL — rule '{rule}' missed its seeded violation")
                failures += 1
        clean_hits = [f for f in findings if f.path.name in clean_names]
        if clean_hits:
            print(f"self-test: FAIL — false positives on the clean files: "
                  f"{'; '.join(map(str, clean_hits))}")
            failures += 1
    print("self-test:", "ok" if failures == 0 else f"{failures} failure(s)")
    return 1 if failures else 0


def main(argv: list) -> int:
    if len(argv) == 2 and argv[1] == "--self-test":
        return self_test()
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    root = pathlib.Path(argv[1]).resolve()
    findings = lint_tree(root)
    for f in findings:
        print(f)
    if findings:
        print(f"opass_lint: {len(findings)} finding(s)")
        return 1
    print("opass_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
