// Fault-lifecycle observability: turns the fault injector's probe events
// (common/probe.hpp) into labeled event entries, Chrome-trace instant
// markers, and timeline series.
//
// The injector stays metric-blind (DESIGN.md §8); this consumer records
// every transition — scripted fault applied (looked up in the plan by the
// event's index), dead-node detection, recovery drive completed — with its
// virtual timestamp, and (when a TimelineRecorder is attached) maintains
// `timeline.faults.dead_nodes` (level) and
// `timeline.faults.rereplication_rate` (bytes/second of recovery copies), so
// failure timing lines up with the serve-rate collapse it causes. Copy
// counts and bytes live in sim::FaultStats.
//
// Determinism: entries are appended in event order by the single-threaded
// simulation, so a seeded run reproduces the log byte-identically.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/probe.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/timeline.hpp"
#include "sim/fault_plan.hpp"

namespace opass::obs {

/// Records the fault/recovery transitions of one run.
class FaultEventLog final : public Probe {
 public:
  struct Entry {
    Seconds at = 0;
    std::string label;  ///< e.g. "crash node 17", "detected node 17 dead"
  };

  /// `plan` is the plan the injector runs: kFault events name their
  /// scripted event by its index there. With a recorder, registers the
  /// timeline.faults.* series up front (the recorder requires every series
  /// before its first sample). Both are borrowed and must outlive the log.
  explicit FaultEventLog(const sim::FaultPlan& plan, TimelineRecorder* recorder = nullptr);

  void on_event(const ProbeEvent& event) override;

  /// Transition entries in event order (copies feed the rate series only).
  const std::vector<Entry>& entries() const { return entries_; }

  /// Emit every entry as a global instant marker under `pid`.
  void add_instants(ChromeTraceBuilder& builder, std::uint32_t pid = 0) const;

 private:
  const sim::FaultPlan& plan_;
  TimelineRecorder* recorder_;
  TimelineRecorder::SeriesId dead_nodes_ = 0, copy_rate_ = 0;
  std::vector<Entry> entries_;
  std::uint32_t dead_ = 0;
};

}  // namespace opass::obs
