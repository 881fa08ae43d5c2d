// Self-contained run reports: one HTML file (inline SVG time-series charts +
// summary tables, no external assets) and a machine-readable timeline JSON.
//
// The HTML is the human-facing artifact of `opass_cli --report-html=...`: a
// section per method (baseline / opass) with the serve-rate, queue-depth and
// bytes-remaining charts side by side — the paper's Fig. 2/3 story at a
// glance — plus the imbalance analytics of obs/analytics.hpp. The JSON is
// the tooling-facing twin (`--timeline-out=...`): full series values plus
// the same analytics, consumed by tools/check_report.py.
//
// Determinism contract: both renderers iterate methods in add order and
// series in registration order, and write every number through
// obs::SinkWriter — a seeded run writes byte-identical artifacts (the
// `cli_report_deterministic` ctest entry asserts this).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/analytics.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/spans.hpp"
#include "obs/timeline.hpp"

namespace opass::obs {

/// One method's finished run, ready to render.
struct MethodReport {
  /// Method label; must be [a-z0-9_]+ (it becomes HTML element ids).
  std::string name;
  /// Finished recorder of the run (borrowed; must outlive the builder).
  const TimelineRecorder* timeline = nullptr;
  ExecutionAnalytics analytics;
  Seconds makespan = 0;
  double local_fraction = 0;
  /// Optional causal span log of the run (borrowed; must outlive the
  /// builder). When set, the HTML gains a bottleneck-attribution section:
  /// per-bucket time shares and the top blamed nodes (obs/attribution.hpp).
  const SpanLog* spans = nullptr;
  std::uint32_t node_count = 0;  ///< sizes the per-node attribution sums
};

/// Accumulates per-method runs and renders the two artifacts.
class ReportBuilder {
 public:
  /// Add one method (rendered in add order). The recorder must be finished.
  void add_method(MethodReport method);

  std::size_t method_count() const { return methods_.size(); }

  /// Render the self-contained HTML page. Chart SVGs carry the ids
  /// `chart-<method>-serve-bytes`, `chart-<method>-queue-depth` and
  /// `chart-<method>-bytes-remaining`.
  std::string html() const;

  /// Render the timeline JSON document:
  ///   {"schema": 1, "methods": [{"name", "interval", "end_time",
  ///    "makespan", "local_fraction", "analytics": {...},
  ///    "series": [{"name", "kind", "values": [...]}, ...]}, ...]}
  /// Ends with a trailing newline.
  std::string timeline_json() const;

 private:
  std::vector<MethodReport> methods_;
};

/// Append the cluster-wide series of a finished recorder (names with exactly
/// three segments, e.g. timeline.cluster.serve_bytes_per_s) as Chrome
/// counter ("C") events under process group `pid`, one counter sample per
/// tick. Per-node / per-process series are skipped — the viewer's counter
/// tracks don't scale to hundreds of them.
void add_timeline_counters(ChromeTraceBuilder& trace, const TimelineRecorder& timeline,
                           std::uint32_t pid);

}  // namespace opass::obs
