#include <gtest/gtest.h>

#include "opass/assignment_stats.hpp"
#include "opass/planner.hpp"
#include "runtime/static_partitioner.hpp"
#include "workload/dataset.hpp"
#include "workload/multi_input.hpp"

namespace opass::core {
namespace {

/// Algorithm 1 through plan(); it draws no random numbers, so no rng.
PlanResult algorithm1(const dfs::NameNode& nn, const std::vector<runtime::Task>& tasks,
                      const ProcessPlacement& placement) {
  return plan({&nn, &tasks, &placement, nullptr}, {.planner = PlannerKind::kMultiData});
}

TEST(MultiData, AssignsEveryTaskWithEqualQuotas) {
  dfs::NameNode nn(dfs::Topology::single_rack(8), 3, kDefaultChunkSize);
  dfs::RandomPlacement policy;
  Rng rng(1);
  const auto tasks = workload::make_multi_input_workload(nn, 24, policy, rng);
  const auto placement = one_process_per_node(nn);
  const auto result = algorithm1(nn, tasks, placement);

  EXPECT_TRUE(runtime::is_partition(result.assignment, 24));
  for (const auto& list : result.assignment) EXPECT_EQ(list.size(), 3u);
}

TEST(MultiData, MatchedBytesConsistentWithAssignment) {
  dfs::NameNode nn(dfs::Topology::single_rack(8), 3, kDefaultChunkSize);
  dfs::RandomPlacement policy;
  Rng rng(2);
  const auto tasks = workload::make_multi_input_workload(nn, 16, policy, rng);
  const auto placement = one_process_per_node(nn);
  const auto result = algorithm1(nn, tasks, placement);

  const auto stats = evaluate_assignment(nn, tasks, result.assignment, placement);
  EXPECT_EQ(stats.local_bytes, result.matched_bytes);
  EXPECT_EQ(stats.total_bytes, 16u * 60 * kMiB);  // 30+20+10 MB per task
}

TEST(MultiData, BeatsRankIntervalOnRandomLayouts) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    dfs::NameNode nn(dfs::Topology::single_rack(16), 3, kDefaultChunkSize);
    dfs::RandomPlacement policy;
    Rng rng(seed);
    const auto tasks = workload::make_multi_input_workload(nn, 64, policy, rng);
    const auto placement = one_process_per_node(nn);

    const auto result = algorithm1(nn, tasks, placement);
    const auto base = runtime::rank_interval_assignment(64, 16);
    const auto base_stats = evaluate_assignment(nn, tasks, base, placement);

    EXPECT_GE(result.local_fraction(), base_stats.local_fraction()) << "seed " << seed;
  }
}

TEST(MultiData, PrefersLargerCoLocation) {
  // Hand-built Fig. 6 style case: the task with 40 MB co-located with p0
  // must go to p0 over a task with only 10 MB co-located.
  dfs::NameNode nn(dfs::Topology::single_rack(2), 1, kDefaultChunkSize);
  class FixedPlacement : public dfs::PlacementPolicy {
   public:
    dfs::ReplicaList place(const dfs::Topology&, dfs::NodeId, std::uint32_t, Rng&) override {
      // files: t0-a (40M)->n0, t0-b (10M)->n1 ; t1-a (40M)->n1, t1-b (10M)->n0
      static const dfs::NodeId seq[] = {0, 1, 1, 0};
      return {seq[i_++]};
    }
    std::string name() const override { return "fixed"; }
    int i_ = 0;
  } policy;
  Rng rng(3);
  std::vector<runtime::Task> tasks(2);
  tasks[0].id = 0;
  tasks[1].id = 1;
  const auto fa = nn.create_file("t0a", 40 * kMiB, policy, rng);
  const auto fb = nn.create_file("t0b", 10 * kMiB, policy, rng);
  const auto fc = nn.create_file("t1a", 40 * kMiB, policy, rng);
  const auto fd = nn.create_file("t1b", 10 * kMiB, policy, rng);
  tasks[0].inputs = {nn.file(fa).chunks[0], nn.file(fb).chunks[0]};
  tasks[1].inputs = {nn.file(fc).chunks[0], nn.file(fd).chunks[0]};

  const auto result = algorithm1(nn, tasks, one_process_per_node(nn));
  EXPECT_EQ(result.assignment[0], (std::vector<runtime::TaskId>{0}));
  EXPECT_EQ(result.assignment[1], (std::vector<runtime::TaskId>{1}));
  EXPECT_EQ(result.matched_bytes, 80 * kMiB);
}

TEST(MultiData, ReassignmentEventHappens) {
  // Fig. 6(b): a task first taken by a weaker process is stolen by a
  // stronger one. p0 sees both tasks; t1 is far better for p1.
  //
  //  n=2 nodes, r=1. t0: 30M on n0. t1: 10M on n0 + 40M on n1.
  //  Preference of p0: t0 (30M) then t1 (10M). p1: t1 (40M).
  //  Quota 1 each: p0 takes t0; p1 takes t1 — or if p1 moves first and takes
  //  t1 with 40M, p0 still gets t0. Either way optimal. To force a steal,
  //  give p0 higher value on t1 than on t0 but p1 even higher on t1:
  //  t0: 10M on n0; t1: 30M on n0 + 40M on n1.
  dfs::NameNode nn(dfs::Topology::single_rack(2), 1, kDefaultChunkSize);
  class FixedPlacement : public dfs::PlacementPolicy {
   public:
    dfs::ReplicaList place(const dfs::Topology&, dfs::NodeId, std::uint32_t, Rng&) override {
      static const dfs::NodeId seq[] = {0, 0, 1};
      return {seq[i_++]};
    }
    std::string name() const override { return "fixed"; }
    int i_ = 0;
  } policy;
  Rng rng(3);
  std::vector<runtime::Task> tasks(2);
  tasks[0].id = 0;
  tasks[1].id = 1;
  const auto f0 = nn.create_file("t0", 10 * kMiB, policy, rng);   // n0
  const auto f1a = nn.create_file("t1a", 30 * kMiB, policy, rng);  // n0
  const auto f1b = nn.create_file("t1b", 40 * kMiB, policy, rng);  // n1
  tasks[0].inputs = {nn.file(f0).chunks[0]};
  tasks[1].inputs = {nn.file(f1a).chunks[0], nn.file(f1b).chunks[0]};

  const auto result = algorithm1(nn, tasks, one_process_per_node(nn));
  // p0 proposes to t1 first (30M > 10M) and takes it; p1 then steals t1
  // (40M > 30M); p0 falls back to t0.
  EXPECT_EQ(result.reassignments, 1u);
  EXPECT_EQ(result.assignment[0], (std::vector<runtime::TaskId>{0}));
  EXPECT_EQ(result.assignment[1], (std::vector<runtime::TaskId>{1}));
}

TEST(MultiData, WorksWithSingleInputTasks) {
  // Algorithm 1 degenerates gracefully to single-input workloads.
  dfs::NameNode nn(dfs::Topology::single_rack(8), 3, kDefaultChunkSize);
  dfs::RandomPlacement policy;
  Rng rng(5);
  const auto tasks = workload::make_single_data_workload(nn, 32, policy, rng);
  const auto result = algorithm1(nn, tasks, one_process_per_node(nn));
  EXPECT_TRUE(runtime::is_partition(result.assignment, 32));
  EXPECT_GT(result.local_fraction(), 0.5);
}

TEST(MultiData, TasksWithNoLocalityStillAssigned) {
  // Zero co-location everywhere (processes on nodes with no data): every
  // task still lands somewhere, quotas exact.
  dfs::NameNode nn(dfs::Topology::single_rack(6), 2, kDefaultChunkSize);
  class FixedPlacement : public dfs::PlacementPolicy {
   public:
    dfs::ReplicaList place(const dfs::Topology&, dfs::NodeId, std::uint32_t, Rng&) override {
      return {4, 5};  // all data on nodes 4 and 5
    }
    std::string name() const override { return "fixed"; }
  } policy;
  Rng rng(7);
  const auto tasks = workload::make_single_data_workload(nn, 8, policy, rng);
  // Processes only on nodes 0..3.
  const ProcessPlacement placement{0, 1, 2, 3};
  const auto result = algorithm1(nn, tasks, placement);
  EXPECT_TRUE(runtime::is_partition(result.assignment, 8));
  EXPECT_EQ(result.matched_bytes, 0u);
  for (const auto& list : result.assignment) EXPECT_EQ(list.size(), 2u);
}

TEST(MultiData, UnevenTaskCountSpreadsRemainder) {
  dfs::NameNode nn(dfs::Topology::single_rack(4), 2, kDefaultChunkSize);
  dfs::RandomPlacement policy;
  Rng rng(9);
  const auto tasks = workload::make_single_data_workload(nn, 10, policy, rng);
  const auto result = algorithm1(nn, tasks, one_process_per_node(nn));
  EXPECT_EQ(result.assignment[0].size(), 3u);
  EXPECT_EQ(result.assignment[1].size(), 3u);
  EXPECT_EQ(result.assignment[2].size(), 2u);
  EXPECT_EQ(result.assignment[3].size(), 2u);
}

}  // namespace
}  // namespace opass::core
