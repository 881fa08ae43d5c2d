#include "runtime/message_master.hpp"

#include <utility>

#include "common/require.hpp"

namespace opass::runtime {

MessageMasterSource::MessageMasterSource(sim::Cluster& cluster, TaskSource& inner,
                                         dfs::NodeId master)
    : cluster_(cluster), inner_(inner), master_(master) {
  OPASS_REQUIRE(master < cluster.node_count(), "master placed on an unknown node");
}

void MessageMasterSource::attach(Execution& execution) {
  execution_ = &execution;
  answers_.assign(execution.process_nodes().size(), Pull::pending());
}

/// A process asks: the first pull sends its REQUEST; the pull resume() makes
/// once the GRANT or STOP arrived returns that answer.
Pull MessageMasterSource::pull(ProcessId process, Seconds /*now*/) {
  OPASS_REQUIRE(execution_ != nullptr, "attach the Execution before its first pull");
  OPASS_REQUIRE(process < answers_.size(), "process out of range");
  if (answers_[process].kind != Pull::Kind::kPending)
    return std::exchange(answers_[process], Pull::pending());
  send(execution_->process_nodes()[process], master_, kRequestBytes,
       [this, process](dfs::NodeId, Seconds) { answer(process); });
  return Pull::pending();
}

std::optional<TaskId> MessageMasterSource::next_task(ProcessId /*process*/, Seconds /*now*/) {
  OPASS_REQUIRE(false, "a message master answers only through pull()");
}

/// The REQUEST of `process` landed at the master: ask the wrapped source and
/// send its answer back; a kWait asks again after its delay.
void MessageMasterSource::answer(ProcessId process) {
  const Pull r = inner_.pull(process, cluster_.simulator().now());
  if (r.kind == Pull::Kind::kWait) {
    OPASS_REQUIRE(r.retry_after > 0, "wait must carry a positive retry delay");
    cluster_.simulator().after(r.retry_after, [this, process](Seconds) { answer(process); });
    return;
  }
  OPASS_REQUIRE(r.kind != Pull::Kind::kPending, "a message master's source must answer");
  answers_[process] = r;
  send(master_, execution_->process_nodes()[process], kGrantBytes,
       [this, process](dfs::NodeId, Seconds) { execution_->resume(process); });
}

void MessageMasterSource::send(dfs::NodeId from, dfs::NodeId to, Bytes bytes,
                               sim::Cluster::Arrival on_arrival) {
  ++messages_;
  bytes_ += bytes;
  cluster_.send({&from, 1}, to, bytes, std::move(on_arrival));
}

}  // namespace opass::runtime
