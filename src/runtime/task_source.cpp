#include "runtime/task_source.hpp"

#include "common/require.hpp"

namespace opass::runtime {

StaticAssignmentSource::StaticAssignmentSource(Assignment assignment)
    : assignment_(std::move(assignment)), cursor_(assignment_.size(), 0) {}

std::optional<TaskId> StaticAssignmentSource::next_task(ProcessId process, Seconds /*now*/) {
  OPASS_REQUIRE(process < assignment_.size(), "process out of range");
  auto& i = cursor_[process];
  if (i >= assignment_[process].size()) return std::nullopt;
  return assignment_[process][i++];
}

MasterWorkerSource::MasterWorkerSource(std::uint32_t task_count, Rng& rng) {
  queue_.resize(task_count);
  for (std::uint32_t t = 0; t < task_count; ++t) queue_[t] = t;
  rng.shuffle(queue_);
}

std::optional<TaskId> MasterWorkerSource::next_task(ProcessId /*process*/, Seconds /*now*/) {
  if (head_ >= queue_.size()) return std::nullopt;
  return queue_[head_++];
}

DelaySchedulingSource::DelaySchedulingSource(const dfs::NameNode& nn,
                                             const std::vector<Task>& tasks,
                                             std::vector<dfs::NodeId> placement, Rng& rng,
                                             Seconds max_delay)
    : nn_(nn), tasks_(tasks), placement_(std::move(placement)), max_delay_(max_delay),
      wait_start_(placement_.size(), -1.0) {
  OPASS_REQUIRE(max_delay_ >= 0, "delay must be non-negative");
  queue_.resize(tasks.size());
  for (TaskId t = 0; t < tasks.size(); ++t) queue_[t] = t;
  rng.shuffle(queue_);
}

std::optional<TaskId> DelaySchedulingSource::take_local(ProcessId process) {
  const dfs::NodeId node = placement_[process];
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    bool local = true;
    for (dfs::ChunkId c : tasks_[queue_[i]].inputs) {
      if (!nn_.chunk(c).has_replica_on(node)) {
        local = false;
        break;
      }
    }
    if (local) {
      const TaskId t = queue_[i];
      queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(i));
      return t;
    }
  }
  return std::nullopt;
}

TaskId DelaySchedulingSource::take_head() {
  const TaskId t = queue_.front();
  queue_.erase(queue_.begin());
  return t;
}

Pull DelaySchedulingSource::pull(ProcessId process, Seconds now) {
  OPASS_REQUIRE(process < placement_.size(), "process out of range");
  if (queue_.empty()) return Pull::done();

  if (const auto local = take_local(process)) {
    wait_start_[process] = -1.0;
    return Pull::run(*local);
  }
  // No local task: wait up to max_delay before settling for remote work.
  if (wait_start_[process] < 0) wait_start_[process] = now;
  if (now - wait_start_[process] < max_delay_) return Pull::wait(kRetryInterval);
  wait_start_[process] = -1.0;
  return Pull::run(take_head());
}

std::optional<TaskId> DelaySchedulingSource::next_task(ProcessId process, Seconds /*now*/) {
  OPASS_REQUIRE(process < placement_.size(), "process out of range");
  if (queue_.empty()) return std::nullopt;
  if (const auto local = take_local(process)) return local;
  return take_head();
}

}  // namespace opass::runtime
