// Attribution aggregates and critical-path analysis over the causal span log
// (obs/spans.hpp; DESIGN.md §13).
//
// Two reductions of the same exact-tiling data:
//
//  - attribute_spans(): where did the time go, summed over top-level spans
//    only (children's slices are already folded into their parents' tilings,
//    so counting both would double-charge). Per AttrKind bucket and per
//    blamed node, in integer ticks — the sums reconcile bit-exactly with the
//    span durations they tile.
//
//  - critical_path(): the longest chain of causally dependent spans that
//    explains the makespan. The walk runs backward from the last-finishing
//    task span; a predecessor is either the same process's previous task
//    (chained exactly, end == start), or — at a phase boundary — the task on
//    *another* process that ended the previous phase (its end equals this
//    start exactly, because exp's Run launches the next phase at its last
//    task's end). Steps chain gap-free, so the path's blame totals sum
//    exactly to the makespan they explain.
//
// Both render through SpanDocBuilder into schema-versioned JSON with
// integer-tick arithmetic only — byte-identical across replays, which is
// what lets tools/span_diff.py explain a makespan regression as an
// attribution delta.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "obs/chrome_trace.hpp"
#include "obs/spans.hpp"

namespace opass::obs {

/// Integer-tick attribution sums: per causal bucket, per blamed node, and
/// the total span time they decompose.
struct AttributionTotals {
  std::array<std::int64_t, kAttrKindCount> kind_ticks{};  ///< by AttrKind
  std::vector<std::int64_t> node_ticks;  ///< by blamed node (sized node_count)
  std::int64_t total_ticks = 0;          ///< sum of attributed span durations

  void add_slice(const AttrSlice& slice);
  /// `slices` (the span's breakdown), or kOther when untiled.
  void add_span(const Span& span, std::span<const AttrSlice> slices);
};

/// Sum the breakdowns of every *top-level* span (parent == kNoSpan) in `log`.
/// kind_ticks sums to total_ticks exactly (untiled spans charge kOther).
AttributionTotals attribute_spans(const SpanLog& log, std::uint32_t node_count);

/// The longest dependent chain of task spans explaining the makespan.
struct CriticalPath {
  /// One step: a task span on the path, or (span == kNoSpan) a synthetic
  /// idle gap between two chained spans of the same process. Steps chain
  /// exactly: each step's end is the next step's start.
  struct Step {
    std::uint32_t span = kNoSpan;
    std::int64_t start_ticks = 0;
    std::int64_t end_ticks = 0;
  };
  std::vector<Step> steps;  ///< in time order, last ends at the makespan
  /// Blame: the path spans' breakdowns summed (idle steps charge kOther).
  /// blame.total_ticks == the path's covered time, exactly.
  AttributionTotals blame;
};

/// Walk the critical path of `log`'s task spans (empty path when there are
/// none). Deterministic: every tie breaks on (process, span id).
CriticalPath critical_path(const SpanLog& log, std::uint32_t node_count);

/// Renders span logs into the two span artifacts (--spans-out and
/// --critical-path): schema-versioned JSON documents and a human-readable
/// critical-path summary. Methods render in add order; names follow the
/// report convention ([a-z0-9_]+). All numbers are integer ticks (or exact
/// tick-derived percentages via obs::SinkWriter), so output is
/// byte-deterministic.
class SpanDocBuilder {
 public:
  /// Add one method's span log (borrowed; must outlive the builder).
  void add_method(const std::string& name, const SpanLog& log,
                  std::uint32_t node_count);

  /// {"schema": 1, "ticks_per_second": ..., "methods": [{name, makespan,
  /// attribution, spans: [...]}]} — the full span log with breakdowns.
  std::string spans_json() const;

  /// Same framing, but per method the critical path: its steps and its blame
  /// totals.
  std::string critical_path_json() const;

  /// Human-readable critical-path summary (one block per method): makespan,
  /// blame percentages in descending order, top blamed nodes, step count.
  std::string critical_path_text() const;

  /// Computed critical path of method `index` (add order) — for the Chrome
  /// trace flow overlay.
  const CriticalPath& path(std::size_t index) const;

  std::size_t method_count() const { return methods_.size(); }

 private:
  struct Method {
    std::string name;
    const SpanLog* log;
    std::uint32_t node_count;
    AttributionTotals totals;
    CriticalPath path;
  };
  std::vector<Method> methods_;
};

/// Overlay `cp` on a Chrome trace: for each consecutive pair of task steps
/// that hops between processes, emit an 's' flow event at the source span's
/// end and an 'f' event at the destination span's start (same flow id), so
/// the viewer draws the phase-boundary arrows the critical path followed.
/// Flow ids are sequential from 1 in path order — deterministic.
void add_critical_path_flows(ChromeTraceBuilder& trace, const SpanLog& log,
                             const CriticalPath& cp, std::uint32_t pid);

}  // namespace opass::obs
