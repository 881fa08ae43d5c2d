#!/usr/bin/env python3
"""opass_analyze — layering and determinism static analysis over src/.

Every run of the program must replay its seed byte for byte (DESIGN.md
"Determinism contract"), and every layer must stay buildable and testable
without the layers above it. This analyzer guards both in the serial
program with three passes that a compiler cannot (or will not) run for us:

  Pass 1 — include-graph layering
      Every `#include "..."` edge under src/ is checked against the declared
      layer DAG (see LAYERS below and DESIGN.md "Static analysis &
      layering"). Rules:
        include-unresolved  quoted include does not exist under src/
                            (projects includes are src-relative full paths)
        layer-undeclared    a src/ directory missing from the layer table —
                            new modules must declare their layer
        layer-upward        an include that points at a *higher* layer, or
                            sideways at a different directory of the same
                            rank: hidden coupling that ties a lower layer to
                            the layers above it
        include-cycle       a strongly-connected component in the file-level
                            include graph
      The pass also emits the dependency report (deterministic DOT + JSON)
      that CI archives on every run.

  Pass 2 — shared-mutable-state audit
      Process-wide state that outlives a run, so a second run in the same
      process can see what the first left behind:
        mutable-static-local   function-local `static` non-const variable
        mutable-global         namespace-scope mutable variable definition
        mutable-static-member  class-level `static` non-const data member
      Findings are suppressed either inline (`// opass-lint: allow(rule)`)
      or via the checked-in allowlist file tools/analyze_allow.txt
      (format: `<rule> <path>[:<line>]`, `#` comments). The allowlist is
      expected to stay empty — it exists so a future, justified exception is
      an explicit reviewed diff, not a silent drift.

  Pass 3 — unordered-iteration determinism
      unordered-emit: a range-for over a `std::unordered_map/set` whose body
      writes to an output channel (stream insertion, printf, exporter calls
      such as counter_add/gauge_set/observe, or push_back/emplace_back into
      a container that is never sorted afterwards). Hash iteration order is
      implementation-defined, so such a loop silently breaks bit-replayable
      experiments. Sort the keys first, collect-then-sort, or iterate an
      ordered mirror.

Usage:
  opass_analyze.py <repo-root> [--dot FILE] [--json FILE] [--allowlist FILE]
  opass_analyze.py --self-test

Exit status: 0 clean, 1 findings, 2 usage error. All three passes are
heuristic text analyses over scrubbed source (comments/strings blanked, see
tools/opass_cpp.py); they are tuned to zero false positives on this tree and
every rule has a positive and a near-miss negative case in --self-test.
"""

from __future__ import annotations

import json
import pathlib
import re
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
from opass_cpp import (  # noqa: E402
    Finding, apply_suppressions, line_of, scrub, source_files)

# --- the declared layer DAG -------------------------------------------------

# Directory -> rank. An include from directory A into directory B is legal
# iff A == B or rank[B] < rank[A]; equal-rank directories are independent
# peers and must not include each other. The bands, bottom to top:
#
#   0  common                          units, RNG, stats, error macros
#   1  graph, analysis                 pure algorithms & closed-form models
#   2  dfs                             HDFS metadata model + API shim
#   3  sim                             flow-level cluster simulator
#   4  runtime                         process/executor model over sim
#   5  workload, opass                 task generators; the planner
#   6  obs                             observability
#   7  exp                             experiment harness (top of the world)
#
# This is the enforced truth of the codebase; DESIGN.md documents the same
# table and the reasoning (e.g. workload sits *above* runtime because its
# generators materialize Task vectors on a NameNode).
LAYERS = {
    "common": 0,
    "graph": 1,
    "analysis": 1,
    "dfs": 2,
    "sim": 3,
    "runtime": 4,
    "workload": 5,
    "opass": 5,
    "obs": 6,
    "exp": 7,
}

INCLUDE_Q = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)


# --- pass 1: include-graph layering ----------------------------------------

def collect_includes(src_root: pathlib.Path, texts: dict) -> dict:
    """Map src-relative file path -> list of (src-relative include, line)."""
    edges: dict = {}
    for path, text in texts.items():
        rel = path.relative_to(src_root).as_posix()
        out = []
        for m in INCLUDE_Q.finditer(scrub(text, keep_strings=True)):
            out.append((m.group(1), line_of(text, m.start())))
        edges[rel] = out
    return edges


def check_layering(src_root: pathlib.Path, includes: dict, findings: list):
    for rel in sorted(includes):
        src_dir = rel.split("/", 1)[0] if "/" in rel else ""
        for target, line in includes[rel]:
            path = src_root / rel
            if not (src_root / target).exists():
                findings.append(Finding(
                    path, line, "include-unresolved",
                    f'"{target}" does not exist under src/ — project '
                    "includes are src-relative full paths"))
                continue
            tgt_dir = target.split("/", 1)[0] if "/" in target else ""
            for d in (src_dir, tgt_dir):
                if d not in LAYERS:
                    findings.append(Finding(
                        path, line, "layer-undeclared",
                        f"directory src/{d}/ is not in the layer table — "
                        "declare its rank in tools/opass_analyze.py LAYERS "
                        "and DESIGN.md"))
                    break
            else:
                if src_dir != tgt_dir and LAYERS[tgt_dir] >= LAYERS[src_dir]:
                    kind = ("sideways (same rank)"
                            if LAYERS[tgt_dir] == LAYERS[src_dir] else "upward")
                    findings.append(Finding(
                        path, line, "layer-upward",
                        f'src/{src_dir}/ (rank {LAYERS[src_dir]}) must not '
                        f'include "{target}" — src/{tgt_dir}/ is rank '
                        f"{LAYERS[tgt_dir]}, an {kind} edge in the layer DAG"))


def check_cycles(src_root: pathlib.Path, includes: dict, findings: list):
    """Tarjan SCC over the file-level include graph; any SCC with more than
    one member (or a self-include) is a cycle."""
    graph = {rel: sorted({t for t, _ in incs if (src_root / t).exists()})
             for rel, incs in includes.items()}
    for rel in list(graph):
        for t in graph[rel]:
            graph.setdefault(t, [])

    index: dict = {}
    low: dict = {}
    on_stack: set = set()
    stack: list = []
    sccs: list = []
    counter = [0]

    def strongconnect(v: str):
        # Iterative Tarjan — the include graph is shallow but recursion
        # limits are not a correctness tool.
        work = [(v, iter(graph[v]))]
        index[v] = low[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        while work:
            node, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(graph[w])))
                    advanced = True
                    break
                if w in on_stack:
                    low[node] = min(low[node], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                sccs.append(sorted(comp))

    for v in sorted(graph):
        if v not in index:
            strongconnect(v)

    for comp in sorted(sccs):
        is_cycle = len(comp) > 1 or comp[0] in graph.get(comp[0], [])
        if is_cycle:
            findings.append(Finding(
                src_root / comp[0], 1, "include-cycle",
                "include cycle: " + " -> ".join(comp + [comp[0]])))


def dependency_report(includes: dict) -> dict:
    """Directory-condensed dependency report, deterministic ordering."""
    dir_edges: dict = {}
    file_edges = 0
    for rel in sorted(includes):
        src_dir = rel.split("/", 1)[0]
        for target, _ in includes[rel]:
            file_edges += 1
            tgt_dir = target.split("/", 1)[0]
            if src_dir != tgt_dir:
                key = (src_dir, tgt_dir)
                dir_edges[key] = dir_edges.get(key, 0) + 1
    return {
        "schema": 1,
        "layers": {d: LAYERS[d] for d in sorted(LAYERS)},
        "files": len(includes),
        "include_edges": file_edges,
        "directory_edges": [
            {"from": a, "to": b, "includes": n}
            for (a, b), n in sorted(dir_edges.items())
        ],
    }


def to_dot(report: dict) -> str:
    """GraphViz rendering of the directory graph, one rank row per layer."""
    lines = ["digraph opass_layers {", "  rankdir=BT;",
             '  node [shape=box, fontname="monospace"];']
    by_rank: dict = {}
    for d, r in sorted(report["layers"].items()):
        by_rank.setdefault(r, []).append(d)
    for r in sorted(by_rank):
        row = " ".join(f'"{d}";' for d in by_rank[r])
        lines.append(f"  {{ rank=same; {row} }}  // layer {r}")
    for e in report["directory_edges"]:
        lines.append(
            f'  "{e["from"]}" -> "{e["to"]}" [label="{e["includes"]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# --- scope tracking (shared by pass 2) --------------------------------------

_SCOPE_HEADER_CLASS = re.compile(r"\b(struct|class|union)\b(?![^{]*[()])")
_SCOPE_HEADER_ENUM = re.compile(r"\benum\b")
_SCOPE_HEADER_NAMESPACE = re.compile(r"\bnamespace\b")


def scope_map(scrubbed: str) -> list:
    """For each `{`...`}` region, classify what kind of scope it opens.

    Returns a list of (offset, kind) events where kind is one of
    'namespace', 'class', 'enum', 'other' for an opening brace and None for
    a closing brace. 'other' covers function bodies, control blocks,
    lambdas and initializers — everything that is *inside a function* for
    the purposes of the mutable-state audit. Preprocessor lines are blanked
    before scanning so `#include <map>` braces in macros cannot confuse the
    stack.
    """
    text = re.sub(r"^[ \t]*#[^\n]*", lambda m: " " * len(m.group(0)),
                  scrubbed, flags=re.MULTILINE)
    events = []
    last_break = 0  # offset just after the previous '{', '}' or ';'
    for m in re.finditer(r"[{};]", text):
        ch = m.group(0)
        if ch == ";":
            last_break = m.end()
            continue
        if ch == "}":
            events.append((m.start(), None))
            last_break = m.end()
            continue
        header = text[last_break:m.start()]
        # Strip a trailing initializer `=` so `int a[] = {` reads as 'other'.
        if _SCOPE_HEADER_NAMESPACE.search(header):
            kind = "namespace"
        elif _SCOPE_HEADER_ENUM.search(header):
            kind = "enum"
        elif _SCOPE_HEADER_CLASS.search(header):
            kind = "class"
        else:
            kind = "other"
        events.append((m.start(), kind))
        last_break = m.end()
    return events


def scope_at(events: list, offset: int) -> str:
    """Innermost scope kind at a byte offset: 'file' when outside every
    brace (namespace scope for the audit's purposes)."""
    stack = []
    for pos, kind in events:
        if pos >= offset:
            break
        if kind is None:
            if stack:
                stack.pop()
        else:
            stack.append(kind)
    return stack[-1] if stack else "file"


# --- pass 2: shared-mutable-state audit -------------------------------------

_STATIC_TOKEN = re.compile(r"(?<![\w_])static\s")
_CONST_MARK = re.compile(r"\b(?:const|constexpr|consteval|constinit)\b")

# A namespace-scope statement that can only be a declaration introducer we
# never flag: types, templates, aliases, linkage, asserts, access into
# another scope.
_NS_SKIP = re.compile(
    r"^\s*(?:using|typedef|template|struct|class|union|enum|namespace|"
    r"friend|extern|static_assert|public|private|protected|case|default|"
    r"return|goto|if|else|for|while|do|switch|break|continue|throw|try|"
    r"catch|\[\[)")

_IDENT = re.compile(r"[A-Za-z_]\w*")


def _decl_slice(text: str, start: int) -> tuple:
    """The declaration text from `start` to the first `;` or `{` at paren
    depth 0 (exclusive). Returns (decl, terminator)."""
    depth = 0
    i = start
    while i < len(text):
        c = text[i]
        if c in "([":
            depth += 1
        elif c in ")]":
            depth -= 1
        elif depth == 0 and c in ";{":
            return text[start:i], c
        elif c == "}":
            return text[start:i], "}"
        i += 1
    return text[start:], ""


def _is_function_decl(decl: str) -> bool:
    """A declarator with a top-level `(` before any `=` is a function."""
    head = decl.split("=", 1)[0]
    return "(" in head


def check_mutable_statics(path: pathlib.Path, text: str, findings: list):
    scrubbed = scrub(text)
    events = scope_map(scrubbed)
    for m in _STATIC_TOKEN.finditer(scrubbed):
        scope = scope_at(events, m.start())
        decl, _term = _decl_slice(scrubbed, m.start())
        if _CONST_MARK.search(decl):
            continue  # static const / constexpr: immutable, thread-safe
        if _is_function_decl(decl):
            continue  # static member function / static free function
        if "thread_local" in decl:
            continue  # per-thread by construction, not shared
        line = line_of(scrubbed, m.start())
        if scope == "other":
            findings.append(Finding(
                path, line, "mutable-static-local",
                "function-local mutable `static` — one instance shared by "
                "every run in the process; localize it, pass it in, "
                "or make it const"))
        elif scope == "class":
            findings.append(Finding(
                path, line, "mutable-static-member",
                "mutable `static` data member — process-wide shared state; "
                "make it per-instance, const, or justify it in "
                "tools/analyze_allow.txt"))
        elif scope in ("file", "namespace"):
            findings.append(Finding(
                path, line, "mutable-global",
                "namespace-scope mutable `static` variable — hidden global "
                "state shared by every run in the process"))


def check_namespace_globals(path: pathlib.Path, text: str, findings: list):
    """Non-static namespace-scope variable definitions (`int g_count = 0;`
    at file or namespace scope). Statements are segmented on `;`/`{`/`}` at
    paren depth 0; anything with a top-level `(` before `=` is a function
    declaration and skipped."""
    scrubbed = scrub(text)
    no_pp = re.sub(r"^[ \t]*#[^\n]*", lambda m: " " * len(m.group(0)),
                   scrubbed, flags=re.MULTILINE)
    events = scope_map(scrubbed)
    # Statement start offsets: position after every top-level break char.
    for m in re.finditer(r"[^;{}]+", no_pp):
        start = m.start() + len(m.group(0)) - len(m.group(0).lstrip())
        stmt = m.group(0).strip()
        if not stmt:
            continue
        if scope_at(events, start) not in ("file", "namespace"):
            continue
        if _NS_SKIP.match(stmt) or _STATIC_TOKEN.match(stmt + " "):
            continue
        if stmt.startswith("static"):
            continue  # handled (with better wording) by check_mutable_statics
        if _CONST_MARK.search(stmt.split("=", 1)[0]):
            continue
        if _is_function_decl(stmt):
            continue
        # Require a plausible `type name` declarator: at least two identifier
        # tokens, the last one a variable name, and an initializer or plain
        # `;` termination (the regex segmentation guarantees the terminator).
        head = stmt.split("=", 1)[0].strip()
        idents = _IDENT.findall(head)
        if len(idents) < 2:
            continue
        if "operator" in idents:
            continue
        findings.append(Finding(
            path, line_of(no_pp, start), "mutable-global",
            f"namespace-scope mutable variable `{idents[-1]}` — global "
            "state shared by every run in the process; scope it into the "
            "owning object or make it constexpr"))


# --- pass 3: unordered-iteration determinism --------------------------------

_UNORDERED_DECL = re.compile(
    r"std\s*::\s*unordered_(?:map|set|multimap|multiset)\s*<")
_RANGE_FOR = re.compile(r"(?<![\w_])for\s*\(")
_EMIT = re.compile(
    r"<<|\bf?printf\s*\(|\.write\s*\(|\.append\s*\(|"
    r"\bcounter_add\s*\(|\bgauge_set\s*\(|\bobserve\s*\(|\bgauge_add\s*\(")
_COLLECT = re.compile(r"(\w+)\s*\.\s*(?:push_back|emplace_back)\s*\(")
_SORT = re.compile(r"\bsort\s*\(")


def _unordered_names(scrubbed: str) -> set:
    """Identifiers declared anywhere in the file with an unordered container
    type (locals, members, params). Template arguments may nest, so the
    name is the first identifier after the matching `>`."""
    names = set()
    for m in _UNORDERED_DECL.finditer(scrubbed):
        i = m.end()
        depth = 1
        while i < len(scrubbed) and depth:
            if scrubbed[i] == "<":
                depth += 1
            elif scrubbed[i] == ">":
                depth -= 1
            i += 1
        tail = scrubbed[i:i + 120]
        nm = re.match(r"\s*&?\s*([A-Za-z_]\w*)", tail)
        if nm:
            names.add(nm.group(1))
    return names


def _balanced(text: str, open_idx: int, open_ch: str, close_ch: str) -> int:
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == open_ch:
            depth += 1
        elif text[i] == close_ch:
            depth -= 1
            if depth == 0:
                return i
    return len(text) - 1


def check_unordered_emit(path: pathlib.Path, text: str, findings: list):
    scrubbed = scrub(text)
    names = _unordered_names(scrubbed)
    if not names:
        return
    for m in _RANGE_FOR.finditer(scrubbed):
        close = _balanced(scrubbed, m.end() - 1, "(", ")")
        header = scrubbed[m.end():close]
        if ";" in header or ":" not in header:
            continue  # classic for, or not a range-for
        range_expr = header.rsplit(":", 1)[1].strip()
        last_ident = _IDENT.findall(range_expr)
        if not last_ident or last_ident[-1] not in names:
            continue
        # Loop body: brace block or single statement.
        after = close + 1
        while after < len(scrubbed) and scrubbed[after] in " \t\n":
            after += 1
        if after < len(scrubbed) and scrubbed[after] == "{":
            body_end = _balanced(scrubbed, after, "{", "}")
        else:
            body_end = scrubbed.find(";", after)
            body_end = len(scrubbed) if body_end < 0 else body_end
        body = scrubbed[after:body_end + 1]
        if _SORT.search(body):
            continue  # sorted inside the loop — ordered emission
        line = line_of(scrubbed, m.start())
        if _EMIT.search(body):
            findings.append(Finding(
                path, line, "unordered-emit",
                f"range-for over unordered container `{last_ident[-1]}` "
                "writes to an output channel — hash order is "
                "implementation-defined and breaks bit-replayable output; "
                "sort keys first or collect-then-sort"))
            continue
        # push_back/emplace_back into a container never sorted afterwards
        # (searched to the end of the file — an over-approximation that
        # only ever errs toward silence within one TU).
        rest = scrubbed[body_end:]
        for c in _COLLECT.finditer(body):
            target = c.group(1)
            if not re.search(r"\bsort\s*\([^;]*\b" + re.escape(target) + r"\b",
                             rest):
                findings.append(Finding(
                    path, line, "unordered-emit",
                    f"range-for over unordered container `{last_ident[-1]}` "
                    f"appends to `{target}` which is never sorted — hash "
                    "order leaks into the output; sort the collected "
                    "entries before use"))
                break


# --- allowlist --------------------------------------------------------------

def load_allowlist(path: pathlib.Path) -> list:
    """Parse `<rule> <path>[:<line>]` entries; `#` starts a comment."""
    entries = []
    if not path.is_file():
        return entries
    for ln, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise SystemExit(
                f"{path}:{ln}: malformed allowlist entry {raw!r} "
                "(expected '<rule> <path>[:<line>]')")
        rule, loc = parts
        if ":" in loc:
            file_part, line_part = loc.rsplit(":", 1)
            entries.append((rule, file_part, int(line_part)))
        else:
            entries.append((rule, loc, None))
    return entries


def apply_allowlist(findings: list, entries: list, root: pathlib.Path) -> list:
    kept = []
    for f in findings:
        rel = f.path.resolve().as_posix()
        try:
            rel = f.path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            pass
        suppressed = any(
            rule == f.rule and rel == file_part
            and (line_part is None or line_part == f.line)
            for rule, file_part, line_part in entries)
        if not suppressed:
            kept.append(f)
    return kept


# --- driver -----------------------------------------------------------------

def analyze_tree(root: pathlib.Path, allowlist: pathlib.Path = None):
    """Run all passes; returns (findings, dependency_report)."""
    src_root = root / "src"
    findings: list = []
    if not src_root.is_dir():
        findings.append(Finding(root, 1, "layout",
                                f"no src/ directory under {root}"))
        return findings, {"schema": 1, "layers": {}, "files": 0,
                          "include_edges": 0, "directory_edges": []}
    texts = {p: p.read_text(encoding="utf-8") for p in source_files(src_root)}
    includes = collect_includes(src_root, texts)

    check_layering(src_root, includes, findings)
    check_cycles(src_root, includes, findings)
    for path in sorted(texts):
        check_mutable_statics(path, texts[path], findings)
        check_namespace_globals(path, texts[path], findings)
        check_unordered_emit(path, texts[path], findings)

    findings = apply_suppressions(findings, texts)
    allow_path = allowlist if allowlist else root / "tools" / "analyze_allow.txt"
    findings = apply_allowlist(findings, load_allowlist(allow_path), root)
    findings.sort(key=lambda f: (str(f.path), f.line, f.rule))
    return findings, dependency_report(includes)


# --- self test --------------------------------------------------------------

# One seeded violation and one near-miss negative per pass. File names carry
# the expectation: bad_* must fire exactly the named rule, ok_* must stay
# silent.
_CASES = {
    # Pass 1: layering ------------------------------------------------------
    "include-cycle": (
        # a.hpp <-> b.hpp in the same directory: legal by layer rank, still
        # a cycle the SCC pass must catch.
        ("common/bad_cycle_a.hpp",
         '#pragma once\n#include "common/bad_cycle_b.hpp"\n'),
        ("common/bad_cycle_b.hpp",
         '#pragma once\n#include "common/bad_cycle_a.hpp"\n'),
    ),
    "layer-upward": (
        # sim (rank 3) reaching up into obs (rank 6).
        ("sim/bad_upward.hpp",
         '#pragma once\n#include "obs/ok_shared.hpp"\n'),
    ),
    # Pass 2: shared mutable state ------------------------------------------
    "mutable-static-local": (
        ("runtime/bad_static_local.cpp",
         "void count_calls() {\n  static int calls = 0;\n  ++calls;\n}\n"),
    ),
    "mutable-global": (
        ("runtime/bad_global.cpp",
         "namespace opass {\nint g_active_jobs = 0;\n}\n"),
    ),
    "mutable-static-member": (
        ("runtime/bad_static_member.hpp",
         "#pragma once\nstruct Pool {\n  static int live_count_;\n};\n"),
    ),
    # Pass 3: unordered-iteration determinism -------------------------------
    "unordered-emit": (
        ("obs/bad_unordered_emit.cpp",
         "#include <ostream>\n#include <string>\n#include <unordered_map>\n"
         "void dump(std::ostream& out,\n"
         "          const std::unordered_map<std::string, int>& counts) {\n"
         "  for (const auto& kv : counts) {\n"
         "    out << kv.first << ' ' << kv.second << '\\n';\n"
         "  }\n"
         "}\n"),
    ),
}

# Near-miss negatives: structurally one step away from the violation and
# must NOT fire anything.
_NEGATIVES = (
    # Diamond, not a cycle: a -> c, b -> c.
    ("common/ok_diamond_a.hpp",
     '#pragma once\n#include "common/ok_diamond_c.hpp"\n'),
    ("common/ok_diamond_b.hpp",
     '#pragma once\n#include "common/ok_diamond_c.hpp"\n'),
    ("common/ok_diamond_c.hpp", "#pragma once\n"),
    # Downward include: obs (rank 6) may see sim (rank 3).
    ("obs/ok_shared.hpp", '#pragma once\n#include "sim/ok_downward.hpp"\n'),
    ("sim/ok_downward.hpp", "#pragma once\n"),
    # const static local: immutable after its (magic-static) init.
    ("runtime/ok_const_static.cpp",
     "int bounds() {\n  static const int k = 8;\n  return k;\n}\n"),
    # constexpr global + a function declaration: neither is mutable state.
    ("runtime/ok_constexpr_global.cpp",
     "namespace opass {\nconstexpr int kMaxJobs = 64;\n"
     "int helper(int x);\n}\n"),
    # static constexpr member and a static member *function*.
    ("runtime/ok_static_member.hpp",
     "#pragma once\nstruct Ok {\n  static constexpr int kN = 2;\n"
     "  static int make();\n};\n"),
    # Unordered loop that only *collects*, then sorts before emission.
    ("obs/ok_collect_then_sort.cpp",
     "#include <algorithm>\n#include <string>\n#include <unordered_map>\n"
     "#include <vector>\n"
     "std::vector<std::string> keys(\n"
     "    const std::unordered_map<std::string, int>& m) {\n"
     "  std::vector<std::string> out;\n"
     "  for (const auto& kv : m) {\n"
     "    out.push_back(kv.first);\n"
     "  }\n"
     "  std::sort(out.begin(), out.end());\n"
     "  return out;\n"
     "}\n"),
    # Range-for over an *ordered* map straight into a stream: fine.
    ("obs/ok_ordered_emit.cpp",
     "#include <map>\n#include <ostream>\n#include <string>\n"
     "void dump(std::ostream& out, const std::map<std::string, int>& m) {\n"
     "  for (const auto& kv : m) {\n"
     "    out << kv.first << ' ' << kv.second << '\\n';\n"
     "  }\n"
     "}\n"),
)

# Suppression fixtures: same violation three times — inline-suppressed,
# allowlisted, and bare (must still fire).
_SUPPRESSION_FILE = (
    "runtime/suppression_probe.cpp",
    "namespace opass {\n"
    "int g_inline_allowed = 0;  // opass-lint: allow(mutable-global)\n"
    "int g_allowlisted = 0;\n"
    "int g_unsuppressed = 0;\n"
    "}\n",
)
_SUPPRESSION_ALLOWLIST = (
    "# self-test allowlist\n"
    "mutable-global src/runtime/suppression_probe.cpp:3\n"
)
_SUPPRESSION_CAUGHT_LINE = 4


def self_test() -> int:
    failures = 0
    with tempfile.TemporaryDirectory(prefix="opass_analyze_selftest.") as tmp:
        root = pathlib.Path(tmp)
        src = root / "src"
        src.mkdir()
        expected: dict = {}
        for rule, files in _CASES.items():
            for name, content in files:
                (src / name).parent.mkdir(parents=True, exist_ok=True)
                (src / name).write_text(content, encoding="utf-8")
                expected.setdefault(rule, set()).add(pathlib.Path(name).name)
        for name, content in _NEGATIVES:
            (src / name).parent.mkdir(parents=True, exist_ok=True)
            (src / name).write_text(content, encoding="utf-8")
        sup_path = src / _SUPPRESSION_FILE[0]
        sup_path.parent.mkdir(parents=True, exist_ok=True)
        sup_path.write_text(_SUPPRESSION_FILE[1], encoding="utf-8")
        allow = root / "allow.txt"
        allow.write_text(_SUPPRESSION_ALLOWLIST, encoding="utf-8")

        findings, report = analyze_tree(root, allowlist=allow)

        for rule, names in sorted(expected.items()):
            hits = {f.path.name for f in findings if f.rule == rule}
            if hits & names:
                print(f"self-test: rule '{rule}' caught its seeded violation")
            else:
                print(f"self-test: FAIL — rule '{rule}' missed its seeded "
                      f"violation (findings: {[str(f) for f in findings]})")
                failures += 1
        neg_names = {pathlib.Path(n).name for n, _ in _NEGATIVES}
        false_pos = [f for f in findings if f.path.name in neg_names]
        if false_pos:
            print("self-test: FAIL — false positives on near-miss negatives: "
                  + "; ".join(map(str, false_pos)))
            failures += 1
        else:
            print(f"self-test: all {len(neg_names)} near-miss negatives "
                  "stayed clean")

        sup_hits = sorted(f.line for f in findings
                          if f.path.name == sup_path.name)
        if sup_hits == [_SUPPRESSION_CAUGHT_LINE]:
            print("self-test: inline + allowlist suppressions honored, bare "
                  "sibling still caught")
        else:
            print(f"self-test: FAIL — suppression probe expected only line "
                  f"{_SUPPRESSION_CAUGHT_LINE}, got {sup_hits}")
            failures += 1

        dot = to_dot(report)
        if report["directory_edges"] and dot.count("->") == len(
                report["directory_edges"]):
            print("self-test: dependency report emits one DOT edge per "
                  "directory edge")
        else:
            print("self-test: FAIL — DOT/JSON dependency report mismatch")
            failures += 1

    print("self-test:", "ok" if failures == 0 else f"{failures} failure(s)")
    return 1 if failures else 0


def main(argv: list) -> int:
    if len(argv) == 2 and argv[1] == "--self-test":
        return self_test()
    args = argv[1:]
    dot_path = json_path = allow_path = None
    positional = []
    i = 0
    while i < len(args):
        a = args[i]
        if a in ("--dot", "--json", "--allowlist"):
            if i + 1 >= len(args):
                print(f"missing value for {a}", file=sys.stderr)
                return 2
            val = args[i + 1]
            if a == "--dot":
                dot_path = val
            elif a == "--json":
                json_path = val
            else:
                allow_path = pathlib.Path(val)
            i += 2
        elif a.startswith("--"):
            print(__doc__, file=sys.stderr)
            return 2
        else:
            positional.append(a)
            i += 1
    if len(positional) != 1:
        print(__doc__, file=sys.stderr)
        return 2

    root = pathlib.Path(positional[0]).resolve()
    findings, report = analyze_tree(root, allowlist=allow_path)
    if json_path:
        pathlib.Path(json_path).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
    if dot_path:
        pathlib.Path(dot_path).write_text(to_dot(report), encoding="utf-8")
    for f in findings:
        print(f)
    if findings:
        print(f"opass_analyze: {len(findings)} finding(s)")
        return 1
    print(f"opass_analyze: clean ({report['files']} files, "
          f"{report['include_edges']} include edges, "
          f"{len(report['directory_edges'])} directory edges)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
