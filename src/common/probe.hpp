// One observer interface for every instrumented subsystem.
//
// The measured subsystems stay metric-blind (DESIGN.md §8): sim::Cluster,
// the runtime executor, sim::FaultInjector and core::PlannerService report
// their state transitions as plain ProbeEvent records to one borrowed
// Probe. An event fires after the emitter updated its own accounting, so a
// consumer that needs more than the record reads the emitter's accessors.
// Turning events into series, markers or logs is the obs layer's job; a
// null probe costs the emitter one branch.
#pragma once

#include <cstdint>
#include <type_traits>

#include "common/units.hpp"

namespace opass {

/// What happened. Each kind names what `id`, `count` and `bytes` carry;
/// fields it does not name stay 0.
enum class ProbeKind : std::uint8_t {
  // sim::Cluster: chunk reads, recovery copies included.
  kReadIssued,     ///< id = serving node, bytes = read size (queued reads too)
  kReadCompleted,  ///< id = serving node, bytes = read size
  kReadAborted,    ///< id = serving node, bytes = read size; the node failed
  // runtime executor: one process's chunk reads and compute phases.
  kOpBegin,  ///< id = process
  kOpEnd,    ///< id = process
  // sim::FaultInjector.
  kFault,      ///< id = index of the applied event in FaultPlan::events
  kDetection,  ///< id = node the heartbeat monitor declared dead
  kCopy,       ///< id = chunk, count = destination node, bytes = copy size
  kRecovered,  ///< id = recovered or drained node, dfs::kInvalidNode for a rebalance
  // core::PlannerService.
  kJobQueued,     ///< id = job, count = queue depth after the submit
  kJobCancelled,  ///< id = job, count = queue depth after the cancel
  kBatchPlanned,  ///< id = batch number, count = queue depth after the cut;
                  ///< PlannerService::last_batch() holds the batch
};

/// One state transition, copied by value.
struct ProbeEvent {
  Seconds at = 0;  ///< virtual time of the transition
  ProbeKind kind = ProbeKind::kReadIssued;
  std::uint64_t id = 0;
  std::uint32_t count = 0;
  Bytes bytes = 0;
};
static_assert(std::is_trivially_copyable_v<ProbeEvent>);

/// The observer every emitter takes (borrowed: it must outlive the emitter
/// or be detached first). Emitters hold its address, so it does not copy.
class Probe {
 public:
  Probe() = default;
  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;
  virtual ~Probe() = default;

  virtual void on_event(const ProbeEvent& event) = 0;
};

}  // namespace opass
