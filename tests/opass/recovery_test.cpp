// Dynamic-scheduler failure recovery (DESIGN.md §11): dead-node re-homing,
// re-plan adoption, and the exactly-once completion audit.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "opass/dynamic_scheduler.hpp"
#include "opass/plan_audit.hpp"
#include "workload/dataset.hpp"

namespace opass::core {
namespace {

struct RecoveryFixture : ::testing::Test {
  RecoveryFixture() : nn(dfs::Topology::single_rack(4), 2, kDefaultChunkSize), rng(1) {
    tasks = workload::make_single_data_workload(nn, 12, policy, rng);
    placement = one_process_per_node(nn);
  }
  dfs::NameNode nn;
  dfs::RandomPlacement policy;
  Rng rng;
  std::vector<runtime::Task> tasks;
  ProcessPlacement placement;
};

TEST_F(RecoveryFixture, DeadNodeListIsRehomedToAliveProcesses) {
  OpassDynamicSource src({{0, 1, 2}, {3, 4, 5}, {6, 7, 8}, {9, 10, 11}}, nn, tasks,
                         placement);
  // one_process_per_node: process 1 lives on node 1.
  src.on_node_dead(1);
  EXPECT_EQ(src.failure_reassignments(), 3u);
  EXPECT_EQ(src.remaining_tasks(), 12u);  // nothing lost, everything re-homed
  const auto ids = src.remaining_task_ids();
  EXPECT_EQ(ids.size(), 12u);
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));

  // The full job still drains exactly once through the alive processes.
  std::set<runtime::TaskId> seen;
  bool progress = true;
  while (progress) {
    progress = false;
    for (runtime::ProcessId p = 0; p < 4; ++p) {
      if (p == 1) continue;  // dead node's process pulls nothing
      if (const auto t = src.next_task(p, 0.0)) {
        EXPECT_TRUE(seen.insert(*t).second) << "task dispensed twice";
        progress = true;
      }
    }
  }
  EXPECT_EQ(seen.size(), 12u);
  EXPECT_EQ(src.remaining_tasks(), 0u);
}

TEST_F(RecoveryFixture, OnNodeDeadIsIdempotent) {
  OpassDynamicSource src({{0, 1, 2}, {3, 4, 5}, {6, 7, 8}, {9, 10, 11}}, nn, tasks,
                         placement);
  src.on_node_dead(2);
  const auto once = src.failure_reassignments();
  src.on_node_dead(2);
  EXPECT_EQ(src.failure_reassignments(), once);
}

TEST_F(RecoveryFixture, DispensedTasksAreNotReassigned) {
  OpassDynamicSource src({{0, 1, 2}, {3, 4, 5}, {6, 7, 8}, {9, 10, 11}}, nn, tasks,
                         placement);
  // Process 1 already pulled task 3 when its node dies.
  ASSERT_EQ(src.next_task(1, 0.0), std::optional<runtime::TaskId>(3));
  src.on_node_dead(1);
  EXPECT_EQ(src.failure_reassignments(), 2u);  // only 4 and 5 re-homed
  EXPECT_EQ(src.remaining_tasks(), 11u);
  const auto ids = src.remaining_task_ids();
  EXPECT_TRUE(std::find(ids.begin(), ids.end(), 3u) == ids.end());
}

TEST_F(RecoveryFixture, AdoptGuidelineReplacesPendingLists) {
  OpassDynamicSource src({{0, 1, 2}, {3, 4, 5}, {6, 7, 8}, {9, 10, 11}}, nn, tasks,
                         placement);
  ASSERT_TRUE(src.next_task(0, 0.0).has_value());  // dispense task 0

  // A fresh plan over exactly the 11 remaining tasks.
  runtime::Assignment fresh{{4, 5, 6}, {1, 2, 3}, {7, 8}, {9, 10, 11}};
  src.adopt_guideline(fresh);
  EXPECT_EQ(src.remaining_tasks(), 11u);
  EXPECT_EQ(src.next_task(0, 0.0), std::optional<runtime::TaskId>(4));
  EXPECT_EQ(src.next_task(1, 0.0), std::optional<runtime::TaskId>(1));
}

TEST_F(RecoveryFixture, AdoptGuidelineRejectsWrongCoverage) {
  OpassDynamicSource src({{0, 1, 2}, {3, 4, 5}, {6, 7, 8}, {9, 10, 11}}, nn, tasks,
                         placement);
  // Covers task 12 (unknown) instead of 11: must be rejected.
  runtime::Assignment wrong{{0, 1, 2}, {3, 4, 5}, {6, 7, 8}, {9, 10, 12}};
  EXPECT_THROW(src.adopt_guideline(wrong), std::invalid_argument);
  // Wrong process count too.
  EXPECT_THROW(src.adopt_guideline(runtime::Assignment{{0}}), std::invalid_argument);
}

// ------------------------------------------- exactly-once completion audit

TEST(AuditCompletion, CompleteRunPasses) {
  const auto report = audit_completion(4, {2, 0, 3, 1});
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(AuditCompletion, MissingAndDuplicateExecutionsAreNamed) {
  const auto report = audit_completion(4, {0, 2, 2});
  EXPECT_TRUE(report.has(AuditCode::kTaskNotExecuted));
  EXPECT_TRUE(report.has(AuditCode::kTaskExecutedTwice));
  EXPECT_NE(report.to_string().find("task 1 never executed"), std::string::npos);
  EXPECT_NE(report.to_string().find("task 3 never executed"), std::string::npos);
  EXPECT_NE(report.to_string().find("task 2 executed 2 times"), std::string::npos);
}

TEST(AuditCompletion, UnknownTaskIdIsFlagged) {
  const auto report = audit_completion(2, {0, 1, 7});
  EXPECT_TRUE(report.has(AuditCode::kUnknownTask));
}

}  // namespace
}  // namespace opass::core
