#include "obs/fault_log.hpp"

#include "common/require.hpp"

namespace opass::obs {

namespace {

constexpr double kMicrosPerSecond = 1e6;

std::string describe(const sim::FaultEvent& event) {
  const std::string kind = sim::fault_kind_name(event.kind);
  switch (event.kind) {
    case sim::FaultKind::kSlow:
      return kind + " node " + std::to_string(event.node) + " x" +
             std::to_string(event.factor);
    case sim::FaultKind::kJoin:
      return kind + " rack " + std::to_string(event.rack);
    case sim::FaultKind::kRebalance:
      return kind + " tolerance " + std::to_string(event.tolerance);
    case sim::FaultKind::kCrash:
    case sim::FaultKind::kRestore:
    case sim::FaultKind::kDecommission:
      return kind + " node " + std::to_string(event.node);
  }
  return kind;
}

}  // namespace

FaultEventLog::FaultEventLog(const sim::FaultPlan& plan, TimelineRecorder* recorder)
    : plan_(plan), recorder_(recorder) {
  if (recorder_ != nullptr) {
    dead_nodes_ = recorder_->add_level_series("timeline.faults.dead_nodes");
    copy_rate_ = recorder_->add_rate_series("timeline.faults.rereplication_rate");
  }
}

void FaultEventLog::on_event(const ProbeEvent& event) {
  const Seconds now = event.at;
  switch (event.kind) {
    case ProbeKind::kFault: {
      OPASS_REQUIRE(event.id < plan_.events.size(), "fault event index outside the plan");
      const sim::FaultEvent& fault = plan_.events[static_cast<std::size_t>(event.id)];
      entries_.push_back({now, describe(fault)});
      if (recorder_ != nullptr && fault.kind == sim::FaultKind::kCrash)
        recorder_->record_level(dead_nodes_, now, static_cast<double>(++dead_));
      return;
    }
    case ProbeKind::kDetection:
      entries_.push_back({now, "detected node " + std::to_string(event.id) + " dead"});
      return;
    case ProbeKind::kCopy:
      if (recorder_ != nullptr)
        recorder_->record_rate(copy_rate_, now, static_cast<double>(event.bytes));
      return;
    case ProbeKind::kRecovered:
      entries_.push_back({now, event.id == dfs::kInvalidNode
                                   ? std::string("rebalance complete")
                                   : "recovery of node " + std::to_string(event.id) +
                                         " complete"});
      return;
    default:
      return;
  }
}

void FaultEventLog::add_instants(ChromeTraceBuilder& builder, std::uint32_t pid) const {
  for (const Entry& e : entries_)
    builder.add_instant(pid, e.label, e.at * kMicrosPerSecond);
}

}  // namespace opass::obs
