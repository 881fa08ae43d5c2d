// Static plan auditor: validates a produced assignment before it feeds the
// simulator, the executor, or a plan_io broadcast.
//
// The matcher runs once in the master process and its output fans out to
// every parallel process, so a malformed plan corrupts a whole job. The
// auditor re-derives the invariants every Opass plan must satisfy directly
// from the NameNode and process placement:
//
//   * well-formedness — every task id in [0, n) assigned to exactly one
//     process, no unknown ids, assignment and placement agree on m, every
//     process pinned to a live cluster node;
//   * capacity — for single-data plans, no process exceeds the paper's
//     TotalSize/m share (at integral task granularity: ceil(n/m) tasks,
//     and in bytes ceil(n/m) * chunk_size);
//   * byte accounting — co-located byte totals recomputed here must agree
//     with evaluate_assignment(), and with caller-recorded stats when a
//     plan travels with its claimed profile;
//   * wire stability — serialize/parse through plan_io reproduces the plan
//     exactly.
//
// Violations are collected (not thrown) so one audit reports every problem
// with a distinct code; callers gate on `AuditReport::ok()`.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "opass/assignment_stats.hpp"
#include "opass/process_index.hpp"
#include "runtime/static_partitioner.hpp"
#include "runtime/task.hpp"

namespace opass::core {

/// One class of invariant violation. Each failing check reports its own
/// code so tests (and operators) can tell *what* is wrong, not just that
/// something is.
enum class AuditCode {
  kProcessCountMismatch,  ///< assignment rows != placement size
  kProcessNodeOutOfRange, ///< placement pins a process to a node >= node_count
  kUnknownTask,           ///< assignment references a task id >= task count
  kDuplicateTask,         ///< a task id appears in more than one list
  kMissingTask,           ///< a task id appears in no list
  kCapacityExceeded,      ///< single-data: a process exceeds its TotalSize/m share
  kStatsMismatch,         ///< byte accounting disagrees with assignment_stats
  kRoundTripMismatch,     ///< plan_io serialize/parse does not reproduce the plan
  kTaskNotExecuted,       ///< completion audit: a task never ran
  kTaskExecutedTwice,     ///< completion audit: a task ran more than once
};

/// Stable lower-case name of a code (e.g. "duplicate-task"), for messages
/// and CLI output.
const char* audit_code_name(AuditCode code);

/// One concrete violation: its class plus a human-readable diagnostic
/// naming the offending task/process/byte counts.
struct AuditIssue {
  AuditCode code;
  std::string message;
};

/// Auditing knobs.
struct AuditOptions {
  /// Enforce the paper's per-process capacity TotalSize/m. Only meaningful
  /// for single-data plans (every task one chunk); the auditor checks it at
  /// task granularity against ceil(n/m) and in bytes against
  /// ceil(n/m) * chunk_size.
  bool enforce_capacity = false;
  /// Stats the plan claims for itself (e.g. recorded when it was broadcast).
  /// When set, the auditor recomputes the profile and reports any field that
  /// disagrees.
  std::optional<AssignmentStats> expected_stats;
};

/// Audit result: every violation found, plus the recomputed profile when the
/// plan was well-formed enough to evaluate.
struct AuditReport {
  std::vector<AuditIssue> issues;
  std::optional<AssignmentStats> stats;

  bool ok() const { return issues.empty(); }
  bool has(AuditCode code) const;
  /// Multi-line report: one "code: message" line per issue, or "plan ok".
  std::string to_string() const;
};

/// Audit `assignment` against the cluster metadata it was computed from.
AuditReport audit_plan(const dfs::NameNode& nn, const std::vector<runtime::Task>& tasks,
                       const runtime::Assignment& assignment,
                       const ProcessPlacement& placement, const AuditOptions& options = {});

/// Exactly-once completion audit: every task id in [0, task_count) must
/// appear exactly once among `executed_tasks` (e.g. the task ids of
/// runtime::ExecutionResult::task_spans). This is the post-run half of the
/// determinism contract under faults — crash/reassign recovery must neither
/// drop nor re-run a task (DESIGN.md §11).
AuditReport audit_completion(std::uint32_t task_count,
                             const std::vector<runtime::TaskId>& executed_tasks);

}  // namespace opass::core
