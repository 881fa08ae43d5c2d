// End-to-end gate: every plan the library's assigners produce — across
// placement policies, seeds and scenario shapes — must pass the static
// auditor before it would be handed to the simulator or broadcast via
// plan_io. This is the integration hook ISSUE 1 asks for: the auditor runs
// against real optimizer output, not just hand-built fixtures.
#include <gtest/gtest.h>

#include "opass/plan_audit.hpp"
#include "opass/planner.hpp"
#include "runtime/static_partitioner.hpp"
#include "workload/dataset.hpp"
#include "workload/multi_input.hpp"

namespace opass {
namespace {

TEST(AuditE2E, SingleDataPlansAuditCleanAcrossSeeds) {
  for (const auto kind : {dfs::PlacementKind::kRandom, dfs::PlacementKind::kHdfsDefault,
                          dfs::PlacementKind::kRoundRobin}) {
    for (std::uint64_t seed : {1ULL, 7ULL, 42ULL}) {
      dfs::NameNode nn(dfs::Topology::single_rack(16), 3, kDefaultChunkSize);
      auto policy = dfs::make_placement(kind);
      Rng rng(seed);
      auto tasks = workload::make_single_data_workload(nn, 160, *policy, rng);
      const auto placement = core::one_process_per_node(nn);

      Rng assign_rng(seed + 1);
      const auto plan = core::plan({&nn, &tasks, &placement, &assign_rng});

      core::AuditOptions opts;
      opts.enforce_capacity = true;  // flow network must respect TotalSize/m
      const auto report = core::audit_plan(nn, tasks, plan.assignment, placement, opts);
      EXPECT_TRUE(report.ok()) << "placement=" << dfs::placement_kind_name(kind)
                               << " seed=" << seed << '\n'
                               << report.to_string();
    }
  }
}

TEST(AuditE2E, MultiDataPlansAuditCleanAcrossSeeds) {
  for (std::uint64_t seed : {3ULL, 11ULL}) {
    dfs::NameNode nn(dfs::Topology::single_rack(8), 3, kDefaultChunkSize);
    auto policy = dfs::make_placement(dfs::PlacementKind::kRandom);
    Rng rng(seed);
    auto tasks = workload::make_multi_input_workload(nn, 64, *policy, rng);
    const auto placement = core::one_process_per_node(nn);

    const auto plan = core::plan({&nn, &tasks, &placement, nullptr},
                                 {.planner = core::PlannerKind::kMultiData});
    const auto report = core::audit_plan(nn, tasks, plan.assignment, placement);
    EXPECT_TRUE(report.ok()) << "seed=" << seed << '\n' << report.to_string();

    // Algorithm 1's matched bytes are exactly the co-located bytes the
    // auditor recounts — the two modules must agree.
    ASSERT_TRUE(report.stats.has_value());
    EXPECT_EQ(report.stats->local_bytes, plan.matched_bytes);
    EXPECT_EQ(report.stats->total_bytes, plan.stats.total_bytes);
  }
}

TEST(AuditE2E, BaselinePlanAuditsCleanWithoutCapacityGate) {
  dfs::NameNode nn(dfs::Topology::single_rack(8), 3, kDefaultChunkSize);
  auto policy = dfs::make_placement(dfs::PlacementKind::kRandom);
  Rng rng(5);
  auto tasks = workload::make_single_data_workload(nn, 80, *policy, rng);
  const auto placement = core::one_process_per_node(nn);
  const auto assignment = runtime::rank_interval_assignment(
      static_cast<std::uint32_t>(tasks.size()), static_cast<std::uint32_t>(placement.size()));
  core::AuditOptions opts;
  opts.enforce_capacity = true;  // rank intervals are equal shares too
  const auto report = core::audit_plan(nn, tasks, assignment, placement, opts);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

}  // namespace
}  // namespace opass
