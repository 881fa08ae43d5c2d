// Message-passing master–worker dispatch (the mpiBLAST architecture of paper
// Sections II-B and IV-D, with real scheduler messages).
//
// A plain TaskSource is a zero-cost oracle: the executor calls it directly.
// MessageMasterSource wraps one and pays for every dispatch on the simulated
// network. A process's pull sends a REQUEST from its node to the master node
// and answers Pull::kPending; when the REQUEST lands, the master asks the
// wrapped source (again after retry_after while it answers kWait) and sends
// the answer back as a GRANT or a STOP; when that arrives, the source calls
// Execution::resume(process), whose pull returns the answer. The processes
// read, compute and fail over in runtime::Execution's one loop, so a
// message-master run records task spans, read breakdowns and probe events,
// and can prefetch, like any other. This is the substrate for the paper's
// Section V-C2 argument that "the scheduling scalability issue is less
// important compared to the actual data movement".
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "runtime/executor.hpp"
#include "runtime/task_source.hpp"
#include "sim/cluster.hpp"

namespace opass::runtime {

/// Message callbacks hold its address, so it is neither copyable nor
/// movable and must outlive every cluster run that serves its Execution.
class MessageMasterSource final : public TaskSource {
 public:
  static constexpr Bytes kRequestBytes = 64;  ///< REQUEST wire size
  static constexpr Bytes kGrantBytes = 128;   ///< GRANT / STOP wire size

  /// `inner` decides what each process gets (it must not answer kPending);
  /// the master runs on node `master`. Both references are borrowed.
  MessageMasterSource(sim::Cluster& cluster, TaskSource& inner, dfs::NodeId master);
  MessageMasterSource(const MessageMasterSource&) = delete;
  MessageMasterSource& operator=(const MessageMasterSource&) = delete;

  /// Hand the source the Execution it serves, built over this source and
  /// not yet launched. A pull before this throws, so runtime::execute()
  /// cannot run a message master.
  void attach(Execution& execution);

  Pull pull(ProcessId process, Seconds now) override;

  /// Throws: a message master answers only through pull().
  std::optional<TaskId> next_task(ProcessId process, Seconds now) override;

  /// Scheduler traffic so far: REQUEST, GRANT and STOP messages and bytes.
  std::uint64_t messages() const { return messages_; }
  Bytes bytes() const { return bytes_; }

 private:
  void answer(ProcessId process);
  void send(dfs::NodeId from, dfs::NodeId to, Bytes bytes, sim::Cluster::Arrival on_arrival);

  sim::Cluster& cluster_;
  TaskSource& inner_;
  dfs::NodeId master_;
  Execution* execution_ = nullptr;
  std::vector<Pull> answers_;  ///< per process: the GRANT or STOP sent, else kPending
  std::uint64_t messages_ = 0;
  Bytes bytes_ = 0;
};

}  // namespace opass::runtime
