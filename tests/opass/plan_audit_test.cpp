#include "opass/plan_audit.hpp"

#include <gtest/gtest.h>

#include "opass/planner.hpp"
#include "workload/dataset.hpp"

namespace opass::core {
namespace {

// 4 nodes, r = 2, 8 one-chunk tasks; RoundRobinPlacement puts chunk i on
// nodes {i%4, (i+1)%4}, so a[t%4] = t is a fully local, quota-exact plan.
struct AuditFixture : ::testing::Test {
  AuditFixture() : nn(dfs::Topology::single_rack(4), 2, kDefaultChunkSize), rng(1) {
    tasks = workload::make_single_data_workload(nn, 8, policy, rng);
    placement = one_process_per_node(nn);
    valid.assign(4, {});
    for (runtime::TaskId t = 0; t < 8; ++t) valid[t % 4].push_back(t);
  }
  dfs::NameNode nn;
  dfs::RoundRobinPlacement policy;
  Rng rng;
  std::vector<runtime::Task> tasks;
  ProcessPlacement placement;
  runtime::Assignment valid;
};

TEST_F(AuditFixture, ValidPlanPasses) {
  AuditOptions opts;
  opts.enforce_capacity = true;
  const auto report = audit_plan(nn, tasks, valid, placement, opts);
  EXPECT_TRUE(report.ok()) << report.to_string();
  ASSERT_TRUE(report.stats.has_value());
  EXPECT_EQ(report.stats->task_count, 8u);
  EXPECT_EQ(report.stats->local_bytes, report.stats->total_bytes);
  EXPECT_EQ(report.to_string(), "plan ok\n");
}

TEST_F(AuditFixture, OptimizerOutputPasses) {
  Rng assign_rng(7);
  const auto result = plan({&nn, &tasks, &placement, &assign_rng});
  AuditOptions opts;
  opts.enforce_capacity = true;
  const auto report = audit_plan(nn, tasks, result.assignment, placement, opts);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST_F(AuditFixture, DuplicateTaskIsDistinctDiagnostic) {
  auto a = valid;
  a[0].push_back(5);  // task 5 now appears twice
  const auto report = audit_plan(nn, tasks, a, placement);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(AuditCode::kDuplicateTask)) << report.to_string();
  EXPECT_FALSE(report.has(AuditCode::kMissingTask));
  EXPECT_NE(report.to_string().find("duplicate-task: task 5"), std::string::npos)
      << report.to_string();
}

TEST_F(AuditFixture, MissingTaskIsDistinctDiagnostic) {
  auto a = valid;
  a[3].pop_back();  // drops task 7
  const auto report = audit_plan(nn, tasks, a, placement);
  EXPECT_TRUE(report.has(AuditCode::kMissingTask)) << report.to_string();
  EXPECT_FALSE(report.has(AuditCode::kDuplicateTask));
  EXPECT_NE(report.to_string().find("missing-task: task 7"), std::string::npos);
}

TEST_F(AuditFixture, UnknownTaskIsDistinctDiagnostic) {
  auto a = valid;
  a[2].push_back(99);
  const auto report = audit_plan(nn, tasks, a, placement);
  EXPECT_TRUE(report.has(AuditCode::kUnknownTask)) << report.to_string();
  EXPECT_NE(report.to_string().find("unknown-task"), std::string::npos);
}

TEST_F(AuditFixture, ProcessCountMismatchIsDistinctDiagnostic) {
  auto a = valid;
  a.emplace_back();  // 5 lists, 4 processes
  const auto report = audit_plan(nn, tasks, a, placement);
  EXPECT_TRUE(report.has(AuditCode::kProcessCountMismatch)) << report.to_string();
}

TEST_F(AuditFixture, ProcessNodeOutOfRangeIsDistinctDiagnostic) {
  auto bad_placement = placement;
  bad_placement[1] = 42;  // cluster has 4 nodes
  const auto report = audit_plan(nn, tasks, valid, bad_placement);
  EXPECT_TRUE(report.has(AuditCode::kProcessNodeOutOfRange)) << report.to_string();
  EXPECT_NE(report.to_string().find("process 1 is pinned to node 42"), std::string::npos);
}

TEST_F(AuditFixture, CapacityOverflowIsDistinctDiagnostic) {
  // Still a partition (round trip fine), but process 0 takes 4 tasks where
  // the TotalSize/m share is 2.
  runtime::Assignment a(4);
  for (runtime::TaskId t = 0; t < 4; ++t) a[0].push_back(t);
  a[1] = {4, 5};
  a[2] = {6};
  a[3] = {7};
  AuditOptions opts;
  opts.enforce_capacity = true;
  const auto report = audit_plan(nn, tasks, a, placement, opts);
  EXPECT_TRUE(report.has(AuditCode::kCapacityExceeded)) << report.to_string();
  EXPECT_FALSE(report.has(AuditCode::kDuplicateTask));
  EXPECT_NE(report.to_string().find("capacity-exceeded: process 0 holds 4 tasks"),
            std::string::npos)
      << report.to_string();
}

TEST_F(AuditFixture, CapacityNotCheckedUnlessRequested) {
  runtime::Assignment a(4);
  for (runtime::TaskId t = 0; t < 8; ++t) a[0].push_back(t);
  const auto report = audit_plan(nn, tasks, a, placement);  // default options
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST_F(AuditFixture, ByteAccountingMismatchIsDistinctDiagnostic) {
  AuditOptions opts;
  AssignmentStats claimed = evaluate_assignment(nn, tasks, valid, placement);
  claimed.local_bytes -= kDefaultChunkSize;  // plan lies about its locality
  opts.expected_stats = claimed;
  const auto report = audit_plan(nn, tasks, valid, placement, opts);
  EXPECT_TRUE(report.has(AuditCode::kStatsMismatch)) << report.to_string();
  EXPECT_FALSE(report.has(AuditCode::kCapacityExceeded));
  EXPECT_NE(report.to_string().find("stats-mismatch: plan claims local_bytes"),
            std::string::npos)
      << report.to_string();
}

TEST_F(AuditFixture, HonestStatsPass) {
  AuditOptions opts;
  opts.expected_stats = evaluate_assignment(nn, tasks, valid, placement);
  EXPECT_TRUE(audit_plan(nn, tasks, valid, placement, opts).ok());
}

TEST_F(AuditFixture, BrokenPlanReportsEveryProblem) {
  runtime::Assignment a(4);
  a[0] = {0, 0, 99};  // duplicate + unknown; tasks 1..7 missing
  const auto report = audit_plan(nn, tasks, a, placement);
  EXPECT_TRUE(report.has(AuditCode::kDuplicateTask));
  EXPECT_TRUE(report.has(AuditCode::kUnknownTask));
  EXPECT_TRUE(report.has(AuditCode::kMissingTask));
  EXPECT_GE(report.issues.size(), 9u);  // 1 dup + 1 unknown + 7 missing
}

TEST_F(AuditFixture, MultiDataCapacityRequestIsRejected) {
  auto multi = tasks;
  multi[0].inputs.push_back(multi[1].inputs[0]);  // task 0 now has two inputs
  AuditOptions opts;
  opts.enforce_capacity = true;
  const auto report = audit_plan(nn, multi, valid, placement, opts);
  EXPECT_TRUE(report.has(AuditCode::kCapacityExceeded)) << report.to_string();
  EXPECT_NE(report.to_string().find("multi-input"), std::string::npos);
}

}  // namespace
}  // namespace opass::core
