// Chrome trace-event exporter: turn a recorded execution into a JSON file
// that chrome://tracing and Perfetto (ui.perfetto.dev) open directly.
//
// Mapping. Each executor process becomes a track (tid = process rank, one
// pid per execution added to the builder — so `--method=both` runs render as
// two side-by-side process groups). Every sim::ReadRecord becomes a complete
// ("X") event in category "read" spanning issue_time..end_time with the
// chunk, byte count, serving node and locality in its args; every
// runtime::TaskSpan becomes an "X" event in category "task" spanning
// pull..compute-done. Cluster-wide timeline series additionally export as
// counter ("C") tracks (obs::add_timeline_counters). Virtual seconds map to
// trace microseconds (1 s = 1e6 µs), the unit the trace-event spec requires.
//
// Determinism: metadata events are emitted sorted by (pid, tid), duration
// and counter events by (ts, pid, tid, name), all with the fixed number
// format of obs/metrics_io.hpp — so a seeded run exports a byte-identical
// trace, the same contract as the metric sinks.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "runtime/executor.hpp"

namespace opass::obs {

/// Accumulates executions and renders one trace-event JSON document.
class ChromeTraceBuilder {
 public:
  /// Name the process group `pid` (emitted as an "M" process_name metadata
  /// event, shown as the group label in the viewer). Repeated calls for the
  /// same pid overwrite the previous name — one metadata event per pid.
  void set_process_name(std::uint32_t pid, const std::string& name);

  /// Add every read and task span of `result` under process group `pid`.
  /// Call once per execution; use distinct pids to compare methods in one
  /// trace.
  void add_execution(const runtime::ExecutionResult& result, std::uint32_t pid = 0);

  /// Append one counter ("C") sample: counter `name` had `value` at `ts_us`
  /// trace microseconds. Consecutive samples of the same (pid, name) render
  /// as a step chart in the viewer.
  void add_counter(std::uint32_t pid, const std::string& name, double ts_us,
                   double value);

  /// Append one global instant ("i", scope "g") event — a vertical marker
  /// across the whole trace. Used for failure-model transitions (crash,
  /// detection, recovery-complete) so fault timing lines up visually with
  /// the read/task spans it perturbs.
  void add_instant(std::uint32_t pid, const std::string& name, double ts_us,
                   const char* category = "fault");

  /// Append one flow event: `ph` is 's' (flow start, stamped at the source
  /// span's end) or 'f' (flow finish, binding point "e", stamped at the
  /// destination span's start); events with the same `flow_id` render as one
  /// arrow in the viewer. Used by obs::add_critical_path_flows to draw the
  /// critical path's cross-process hops over the task tracks.
  void add_flow_step(std::uint32_t pid, std::uint32_t tid, double ts_us, char ph,
                     std::uint64_t flow_id);

  /// Render the document: {"traceEvents": [...], "displayTimeUnit": "ms"}.
  /// Metadata events first — process_name / process_sort_index per named
  /// pid and thread_sort_index per (pid, tid) track, sorted by (pid, tid) so
  /// the viewer orders groups and tracks numerically — then duration and
  /// counter events sorted by timestamp.
  std::string json() const;

 private:
  /// What an event's "name" renders from: "read chunk <id>", "task <id>",
  /// or names_[name] (counters, instants and flow steps).
  enum class Label : std::uint8_t { kReadChunk, kTask, kNamed };

  /// One duration, counter, instant or flow event, kept as typed fields and
  /// rendered only by json().
  struct Event {
    double ts_us = 0;   ///< issue time in trace microseconds
    double dur_us = 0;  ///< duration in trace microseconds (>= 0; "X" only)
    double value = 0;   ///< counter sample ("C" only)
    std::uint64_t id = 0;     ///< chunk (reads), task (tasks), flow id ("s"/"f")
    std::uint64_t bytes = 0;  ///< read payload (reads only)
    std::uint32_t pid = 0;
    std::uint32_t tid = 0;
    std::uint32_t server = 0;  ///< serving node (reads only)
    std::uint32_t name = 0;    ///< index into names_ (kNamed only)
    const char* cat = "";
    char ph = 'X';  ///< "X" duration, "C" counter, "i" instant, "s"/"f" flow
    Label label = Label::kNamed;
    bool local = false;  ///< read served from the reader's own node
  };

  /// Index of `name` in names_; consecutive events of one counter series
  /// share one entry.
  std::uint32_t intern(const std::string& name);
  /// The event's rendered "name"; reads and tasks render into `buf`.
  std::string_view name_of(const Event& e, char (&buf)[32]) const;

  std::vector<Event> events_;
  std::vector<std::string> names_;
  std::vector<std::pair<std::uint32_t, std::string>> process_names_;
};

}  // namespace opass::obs
