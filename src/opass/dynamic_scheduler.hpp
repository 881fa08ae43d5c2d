// Opass for dynamic parallel data access (paper Section IV-D).
//
// For irregular workloads (gene comparison) a master assigns tasks to slaves
// at run time. Opass precomputes the matching-based assignment A* and uses
// it as a guideline:
//
//  1. before execution, slave i receives the task list L_i from the matcher;
//  2. an idle slave with a non-empty L_i is handed the next task from L_i;
//  3. an idle slave with an empty L_i steals from the *longest* remaining
//     list L_k, taking the task with the largest co-located byte count for
//     the idle slave.
//
// Implemented as a runtime::TaskSource so the executor treats it exactly
// like any other scheduler.
//
// Failure recovery (DESIGN.md §11). When the cluster loses a DataNode the
// guideline A* degrades: lists queued for processes co-located with the dead
// node were chosen *because* their inputs lived there. on_node_dead()
// re-homes those lists deterministically; adopt_guideline() swaps in a
// freshly re-planned A* over the remaining tasks (exp::run_dynamic re-plans
// through the core::plan() facade on membership changes).
//
// Thread-safety: single-threaded, like every scheduler in this repo — the
// executor calls next_task() and the recovery hooks from the one simulation
// thread.
#pragma once

#include <deque>
#include <vector>

#include "dfs/namenode.hpp"
#include "opass/process_index.hpp"
#include "runtime/task_source.hpp"

namespace opass::core {

/// The Section IV-D scheduler.
class OpassDynamicSource final : public runtime::TaskSource {
 public:
  /// `guideline` is the precomputed A* (one list per process); `tasks`,
  /// `placement` and `nn` are used to compute co-located sizes for the
  /// stealing rule.
  ///
  /// Preconditions: guideline.size() == placement.size(); every task id in
  /// the guideline indexes `tasks`; `nn` and `tasks` outlive the source
  /// (borrowed by reference).
  OpassDynamicSource(runtime::Assignment guideline, const dfs::NameNode& nn,
                     const std::vector<runtime::Task>& tasks, ProcessPlacement placement);

  std::optional<runtime::TaskId> next_task(runtime::ProcessId process, Seconds now) override;

  // --- failure recovery hooks (driven by exp:: on membership events) ---

  /// React to `node` being declared dead: every *pending* task queued for a
  /// process placed on that node is re-homed to the alive process with the
  /// most co-located bytes for it (ties to the smallest process id; tasks
  /// with no surviving co-located replica go to the shortest alive list).
  ///
  /// Preconditions: none — safe to call for a node hosting no process.
  /// Postconditions: processes on dead nodes hold empty lists, so they only
  /// steal from step 3 onwards; already-dispensed tasks are untouched
  /// (exactly-once dispatch is preserved). Deterministic: a pure function
  /// of the lists and metadata at the call point, no RNG drawn.
  void on_node_dead(dfs::NodeId node);

  /// Pending (not yet dispensed) tasks across all lists.
  std::uint32_t remaining_tasks() const { return remaining_; }

  /// Ids of all pending tasks, ascending — the re-planning work list.
  std::vector<runtime::TaskId> remaining_task_ids() const;

  /// Replace every pending list with `guideline` (a fresh A* re-planned over
  /// exactly the remaining tasks — obtain them via remaining_task_ids()).
  ///
  /// Preconditions: guideline.size() == process count; the guideline's task
  /// ids are a permutation of remaining_task_ids() (checked — re-planning
  /// must neither duplicate nor drop a pending task, or exactly-once
  /// execution breaks).
  void adopt_guideline(const runtime::Assignment& guideline);

  /// Number of steals performed so far (observability for tests/benches).
  std::uint32_t steal_count() const { return steals_; }

  /// Steals whose chosen task had at least one input replica co-located with
  /// the stealing process — the "steal locality hit rate" numerator: how
  /// often the paper's rule actually finds local data in the victim's list.
  std::uint32_t steal_local_hits() const { return steal_local_hits_; }

  /// Tasks handed out from a process's own guideline list L_i (step 2), as
  /// opposed to stolen ones. guideline_hits() + steal_count() equals the
  /// total number of tasks dispensed.
  std::uint32_t guideline_hits() const { return guideline_hits_; }

 private:
  Bytes co_located_bytes(runtime::ProcessId process, runtime::TaskId task) const;
  bool on_dead_node(runtime::ProcessId process) const;

  /// Append `task` to process `p`'s list, keeping the size index in step.
  void push(std::size_t p, runtime::TaskId task);

  std::vector<std::deque<runtime::TaskId>> lists_;
  // sizes_[p] == lists_[p].size(), kept contiguous so the steal rule scans
  // one array instead of every deque; remaining_ is their sum.
  std::vector<std::uint32_t> sizes_;
  std::uint32_t remaining_ = 0;
  const dfs::NameNode& nn_;
  const std::vector<runtime::Task>& tasks_;
  ProcessPlacement placement_;
  std::vector<dfs::NodeId> dead_nodes_;
  std::uint32_t steals_ = 0;
  std::uint32_t steal_local_hits_ = 0;
  std::uint32_t guideline_hits_ = 0;
};

}  // namespace opass::core
