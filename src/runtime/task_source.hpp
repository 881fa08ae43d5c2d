// Task sources: where an idle process gets its next task.
//
// Static sources replay a precomputed Assignment (rank-interval or Opass
// matching); the master–worker source models the mpiBLAST-style scheduler of
// Section IV-D, handing out tasks dynamically. Opass's dynamic scheduler
// (opass/dynamic_scheduler.hpp) implements the same interface, so the
// executor is policy-agnostic.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "dfs/namenode.hpp"
#include "runtime/static_partitioner.hpp"
#include "runtime/task.hpp"

namespace opass::runtime {

/// Outcome of asking a source for work.
struct Pull {
  enum class Kind {
    kTask,  ///< run `task`
    kWait,  ///< nothing suitable *yet* — ask again after `retry_after`
    kDone,  ///< source drained for this process: retire
  };
  Kind kind = Kind::kDone;
  TaskId task = kInvalidTask;
  Seconds retry_after = 0;

  static Pull run(TaskId t) { return {Kind::kTask, t, 0}; }
  static Pull wait(Seconds retry) { return {Kind::kWait, kInvalidTask, retry}; }
  static Pull done() { return {}; }
};

/// Pull-based task dispenser. The executor calls pull() whenever a process
/// becomes idle; kWait lets locality-aware schedulers (e.g. delay
/// scheduling) hold a worker briefly instead of handing it remote work.
/// Simple sources only implement next_task(); the default pull() maps
/// nullopt to kDone.
class TaskSource {
 public:
  virtual ~TaskSource() = default;
  virtual std::optional<TaskId> next_task(ProcessId process, Seconds now) = 0;

  virtual Pull pull(ProcessId process, Seconds now) {
    const auto t = next_task(process, now);
    return t ? Pull::run(*t) : Pull::done();
  }
};

/// Replays a fixed per-process assignment in order.
class StaticAssignmentSource final : public TaskSource {
 public:
  explicit StaticAssignmentSource(Assignment assignment);
  std::optional<TaskId> next_task(ProcessId process, Seconds now) override;

 private:
  Assignment assignment_;
  std::vector<std::size_t> cursor_;
};

/// Default master–worker: a single global queue handed out first-come
/// first-served. The order is shuffled at construction, matching the paper's
/// dynamic baseline ("issue data requests via a random policy to simulate the
/// irregular computation patterns").
class MasterWorkerSource final : public TaskSource {
 public:
  MasterWorkerSource(std::uint32_t task_count, Rng& rng);
  std::optional<TaskId> next_task(ProcessId process, Seconds now) override;

 private:
  std::vector<TaskId> queue_;
  std::size_t head_ = 0;
};

/// Delay scheduling (Zaharia et al., EuroSys'10 — the paper's reference on
/// locality scheduling): an idle worker first looks for a task whose input
/// is on its own node; if none exists it *waits* up to `max_delay` before
/// accepting remote work, on the theory that a local slot frees up soon.
/// Simplified single-job form with a per-worker wait clock, re-polled every
/// kRetryInterval. max_delay = 0 degenerates to the FIFO master–worker.
class DelaySchedulingSource final : public TaskSource {
 public:
  static constexpr Seconds kRetryInterval = 0.05;

  DelaySchedulingSource(const dfs::NameNode& nn, const std::vector<Task>& tasks,
                        std::vector<dfs::NodeId> placement, Rng& rng, Seconds max_delay);

  Pull pull(ProcessId process, Seconds now) override;

  /// next_task() is the delay-exhausted behavior: local if available, else
  /// the queue head immediately.
  std::optional<TaskId> next_task(ProcessId process, Seconds now) override;

 private:
  std::optional<TaskId> take_local(ProcessId process);
  TaskId take_head();

  const dfs::NameNode& nn_;
  const std::vector<Task>& tasks_;
  std::vector<dfs::NodeId> placement_;
  Seconds max_delay_;
  std::vector<TaskId> queue_;  // remaining tasks, FIFO order
  std::vector<Seconds> wait_start_;  // per process; <0 = not waiting
};

}  // namespace opass::runtime
