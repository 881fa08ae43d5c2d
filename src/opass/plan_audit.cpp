#include "opass/plan_audit.hpp"

#include <algorithm>
#include <sstream>

#include "opass/plan_io.hpp"

namespace opass::core {

namespace {

void add_issue(AuditReport& report, AuditCode code, const std::string& message) {
  report.issues.push_back({code, message});
}

/// True iff every task has exactly one input chunk — the shape the paper's
/// single-data capacity constraint applies to.
bool is_single_data(const std::vector<runtime::Task>& tasks) {
  return std::all_of(tasks.begin(), tasks.end(),
                     [](const runtime::Task& t) { return t.inputs.size() == 1; });
}

/// Exactly-once check: count occurrences of every task id across all lists.
/// Reports unknown ids, duplicates and omissions; returns true iff the
/// assignment is a clean partition of [0, n).
bool check_partition(const std::vector<runtime::Task>& tasks,
                     const runtime::Assignment& assignment, AuditReport& report) {
  const auto n = tasks.size();
  std::vector<std::uint32_t> seen(n, 0);
  bool clean = true;
  for (std::size_t p = 0; p < assignment.size(); ++p) {
    for (runtime::TaskId t : assignment[p]) {
      if (t >= n) {
        std::ostringstream os;
        os << "process " << p << " references task " << t << " but the job has only " << n
           << " tasks";
        add_issue(report, AuditCode::kUnknownTask, os.str());
        clean = false;
        continue;
      }
      ++seen[t];
    }
  }
  for (std::size_t t = 0; t < n; ++t) {
    if (seen[t] == 1) continue;
    clean = false;
    std::ostringstream os;
    if (seen[t] == 0) {
      os << "task " << t << " is assigned to no process";
      add_issue(report, AuditCode::kMissingTask, os.str());
    } else {
      os << "task " << t << " is assigned " << seen[t] << " times";
      add_issue(report, AuditCode::kDuplicateTask, os.str());
    }
  }
  return clean;
}

/// Paper constraint: each process reads at most its TotalSize/m share. At
/// integral task granularity (every task one chunk) that is ceil(n/m) tasks;
/// in bytes it is ceil(n/m) * chunk_size, since no single-data input can
/// exceed one chunk. Which processes take the ceiling is the assigner's
/// choice, so the cap is uniform rather than positional.
void check_capacity(const dfs::NameNode& nn, const std::vector<runtime::Task>& tasks,
                    const runtime::Assignment& assignment, AuditReport& report) {
  if (!is_single_data(tasks)) {
    add_issue(report, AuditCode::kCapacityExceeded,
              "capacity audit requested for a plan with multi-input tasks; the "
              "TotalSize/m constraint only applies to single-data plans");
    return;
  }
  const auto n = tasks.size();
  const auto m = assignment.size();
  const auto cap_tasks = static_cast<std::uint32_t>((n + m - 1) / m);
  const Bytes cap_bytes = static_cast<Bytes>(cap_tasks) * nn.chunk_size();
  for (std::size_t p = 0; p < m; ++p) {
    const auto count = static_cast<std::uint32_t>(assignment[p].size());
    if (count > cap_tasks) {
      std::ostringstream os;
      os << "process " << p << " holds " << count << " tasks but its TotalSize/m share is "
         << cap_tasks;
      add_issue(report, AuditCode::kCapacityExceeded, os.str());
      continue;
    }
    Bytes bytes = 0;
    for (runtime::TaskId t : assignment[p]) bytes += tasks[t].input_bytes(nn);
    if (bytes > cap_bytes) {
      std::ostringstream os;
      os << "process " << p << " reads " << bytes << " bytes but its byte capacity is "
         << cap_bytes;
      add_issue(report, AuditCode::kCapacityExceeded, os.str());
    }
  }
}

/// Independent byte accounting: walk the plan chunk by chunk (a different
/// traversal than evaluate_assignment's) and cross-check both computations,
/// plus any stats the caller recorded for the plan.
void check_stats(const dfs::NameNode& nn, const std::vector<runtime::Task>& tasks,
                 const runtime::Assignment& assignment, const ProcessPlacement& placement,
                 const AuditOptions& options, AuditReport& report) {
  Bytes total = 0, local = 0;
  for (std::size_t p = 0; p < assignment.size(); ++p) {
    for (runtime::TaskId t : assignment[p]) {
      for (dfs::ChunkId c : tasks[t].inputs) {
        const auto& chunk = nn.chunk(c);
        total += chunk.size;
        if (chunk.has_replica_on(placement[p])) local += chunk.size;
      }
    }
  }
  const AssignmentStats stats = evaluate_assignment(nn, tasks, assignment, placement);
  report.stats = stats;
  if (stats.total_bytes != total || stats.local_bytes != local) {
    std::ostringstream os;
    os << "assignment_stats disagrees with the audit recount: stats say " << stats.local_bytes
       << "/" << stats.total_bytes << " local/total bytes, recount says " << local << "/"
       << total;
    add_issue(report, AuditCode::kStatsMismatch, os.str());
  }
  if (!options.expected_stats) return;
  const AssignmentStats& want = *options.expected_stats;
  const auto mismatch = [&](const char* field, std::uint64_t got, std::uint64_t claimed) {
    std::ostringstream os;
    os << "plan claims " << field << " = " << claimed << " but the placement yields " << got;
    add_issue(report, AuditCode::kStatsMismatch, os.str());
  };
  if (want.total_bytes != stats.total_bytes)
    mismatch("total_bytes", stats.total_bytes, want.total_bytes);
  if (want.local_bytes != stats.local_bytes)
    mismatch("local_bytes", stats.local_bytes, want.local_bytes);
  if (want.task_count != stats.task_count)
    mismatch("task_count", stats.task_count, want.task_count);
  if (want.max_tasks_per_process != stats.max_tasks_per_process)
    mismatch("max_tasks_per_process", stats.max_tasks_per_process,
             want.max_tasks_per_process);
  if (want.min_tasks_per_process != stats.min_tasks_per_process)
    mismatch("min_tasks_per_process", stats.min_tasks_per_process,
             want.min_tasks_per_process);
}

void check_round_trip(const std::vector<runtime::Task>& tasks,
                      const runtime::Assignment& assignment, AuditReport& report) {
  const auto n = static_cast<std::uint32_t>(tasks.size());
  try {
    const std::string wire = serialize_assignment(assignment, n);
    const runtime::Assignment parsed = parse_assignment(wire);
    if (parsed != assignment) {
      add_issue(report, AuditCode::kRoundTripMismatch,
                "plan_io serialize/parse does not reproduce the assignment");
    }
  } catch (const std::exception& e) {
    add_issue(report, AuditCode::kRoundTripMismatch,
              std::string("plan_io round trip failed: ") + e.what());
  }
}

}  // namespace

const char* audit_code_name(AuditCode code) {
  switch (code) {
    case AuditCode::kProcessCountMismatch: return "process-count-mismatch";
    case AuditCode::kProcessNodeOutOfRange: return "process-node-out-of-range";
    case AuditCode::kUnknownTask: return "unknown-task";
    case AuditCode::kDuplicateTask: return "duplicate-task";
    case AuditCode::kMissingTask: return "missing-task";
    case AuditCode::kCapacityExceeded: return "capacity-exceeded";
    case AuditCode::kStatsMismatch: return "stats-mismatch";
    case AuditCode::kRoundTripMismatch: return "round-trip-mismatch";
    case AuditCode::kTaskNotExecuted: return "task-not-executed";
    case AuditCode::kTaskExecutedTwice: return "task-executed-twice";
  }
  return "unknown";
}

AuditReport audit_completion(std::uint32_t task_count,
                             const std::vector<runtime::TaskId>& executed_tasks) {
  AuditReport report;
  std::vector<std::uint32_t> runs(task_count, 0);
  for (runtime::TaskId t : executed_tasks) {
    if (t >= task_count) {
      std::ostringstream os;
      os << "execution reports task " << t << " but the job has only " << task_count
         << " tasks";
      add_issue(report, AuditCode::kUnknownTask, os.str());
      continue;
    }
    ++runs[t];
  }
  for (std::uint32_t t = 0; t < task_count; ++t) {
    if (runs[t] == 1) continue;
    std::ostringstream os;
    if (runs[t] == 0) {
      os << "task " << t << " never executed";
      add_issue(report, AuditCode::kTaskNotExecuted, os.str());
    } else {
      os << "task " << t << " executed " << runs[t] << " times";
      add_issue(report, AuditCode::kTaskExecutedTwice, os.str());
    }
  }
  return report;
}

bool AuditReport::has(AuditCode code) const {
  return std::any_of(issues.begin(), issues.end(),
                     [code](const AuditIssue& i) { return i.code == code; });
}

std::string AuditReport::to_string() const {
  if (issues.empty()) return "plan ok\n";
  std::ostringstream os;
  for (const auto& issue : issues)
    os << audit_code_name(issue.code) << ": " << issue.message << '\n';
  return os.str();
}

AuditReport audit_plan(const dfs::NameNode& nn, const std::vector<runtime::Task>& tasks,
                       const runtime::Assignment& assignment,
                       const ProcessPlacement& placement, const AuditOptions& options) {
  AuditReport report;

  if (assignment.size() != placement.size()) {
    std::ostringstream os;
    os << "assignment has " << assignment.size() << " process lists but the placement runs "
       << placement.size() << " processes";
    add_issue(report, AuditCode::kProcessCountMismatch, os.str());
  }
  for (std::size_t p = 0; p < placement.size(); ++p) {
    if (placement[p] >= nn.node_count()) {
      std::ostringstream os;
      os << "process " << p << " is pinned to node " << placement[p] << " but the cluster has "
         << nn.node_count() << " nodes";
      add_issue(report, AuditCode::kProcessNodeOutOfRange, os.str());
    }
  }

  const bool partition_ok = check_partition(tasks, assignment, report);

  // The byte-level checks need every referenced task and node to resolve;
  // skip them (rather than crash) when the plan is structurally broken.
  const bool shapes_ok = assignment.size() == placement.size() &&
                         !report.has(AuditCode::kUnknownTask) &&
                         !report.has(AuditCode::kProcessNodeOutOfRange);
  if (shapes_ok) {
    if (options.enforce_capacity) check_capacity(nn, tasks, assignment, report);
    check_stats(nn, tasks, assignment, placement, options, report);
  }
  // A plan that is not a partition could not serialize at all.
  if (partition_ok && !assignment.empty()) check_round_trip(tasks, assignment, report);

  return report;
}

}  // namespace opass::core
