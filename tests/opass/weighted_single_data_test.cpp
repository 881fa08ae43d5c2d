#include <gtest/gtest.h>

#include <algorithm>

#include "opass/assignment_stats.hpp"
#include "opass/planner.hpp"
#include "workload/dataset.hpp"

namespace opass::core {
namespace {

/// One single-chunk file per task with the given sizes.
std::vector<runtime::Task> heterogeneous_tasks(dfs::NameNode& nn,
                                               const std::vector<Bytes>& sizes,
                                               dfs::PlacementPolicy& policy, Rng& rng) {
  std::vector<runtime::Task> tasks;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const auto fid =
        nn.create_file(std::string("f").append(std::to_string(i)), sizes[i], policy, rng);
    runtime::Task t;
    t.id = static_cast<runtime::TaskId>(i);
    t.inputs = {nn.file(fid).chunks[0]};
    tasks.push_back(std::move(t));
  }
  return tasks;
}

/// Input bytes assigned to each process.
std::vector<Bytes> process_bytes(const dfs::NameNode& nn, const std::vector<runtime::Task>& tasks,
                                 const runtime::Assignment& assignment) {
  std::vector<Bytes> bytes;
  for (const auto& list : assignment) {
    Bytes b = 0;
    for (auto t : list) b += nn.chunk(tasks[t].inputs[0]).size;
    bytes.push_back(b);
  }
  return bytes;
}

constexpr PlanOptions kWeighted{.planner = PlannerKind::kWeighted};

TEST(WeightedSingleData, UniformSizesBehaveLikeUnitAssigner) {
  dfs::NameNode nn(dfs::Topology::single_rack(8), 3, kDefaultChunkSize);
  dfs::RandomPlacement policy;
  Rng rng(1);
  const auto tasks = workload::make_single_data_workload(nn, 40, policy, rng);
  const auto placement = one_process_per_node(nn);

  Rng r1(2), r2(2);
  const auto w = plan({&nn, &tasks, &placement, &r1}, kWeighted);
  const auto u = plan({&nn, &tasks, &placement, &r2});
  EXPECT_TRUE(runtime::is_partition(w.assignment, 40));
  // Same total locality on uniform sizes (both compute a max matching).
  EXPECT_EQ(w.stats.local_bytes, u.stats.local_bytes);
}

TEST(WeightedSingleData, BalancesBytesNotCounts) {
  // 4 nodes, r = 1 for full control: two huge files on node 0, six small
  // spread elsewhere. Byte-balancing must not give node 0's process both
  // huge files plus smalls up to equal *count*.
  dfs::NameNode nn(dfs::Topology::single_rack(4), 1, 64 * kMiB);
  class FixedPlacement : public dfs::PlacementPolicy {
   public:
    dfs::ReplicaList place(const dfs::Topology&, dfs::NodeId, std::uint32_t, Rng&) override {
      static const dfs::NodeId seq[] = {0, 0, 1, 1, 2, 2, 3, 3};
      return {seq[i_++ % 8]};
    }
    std::string name() const override { return "fixed"; }
    int i_ = 0;
  } policy;
  Rng rng(3);
  const std::vector<Bytes> sizes{60 * kMiB, 60 * kMiB, 10 * kMiB, 10 * kMiB,
                                 10 * kMiB, 10 * kMiB, 10 * kMiB, 10 * kMiB};
  const auto tasks = heterogeneous_tasks(nn, sizes, policy, rng);
  const auto placement = one_process_per_node(nn);

  const auto result = plan({&nn, &tasks, &placement, &rng}, kWeighted);
  EXPECT_TRUE(runtime::is_partition(result.assignment,
                                    static_cast<std::uint32_t>(tasks.size())));
  // Total 180 MiB over 4 processes => quota 45 MiB. p0 cannot take both
  // 60 MiB files (a count-equal split could); the guarantee is
  // quota + one-file overload, so max load stays below 105 MiB and well
  // below the 120 MiB a count-based split would allow on p0.
  const auto bytes = process_bytes(nn, tasks, result.assignment);
  const Bytes max_process_bytes = *std::max_element(bytes.begin(), bytes.end());
  EXPECT_LT(max_process_bytes, 120 * kMiB);
  EXPECT_LE(max_process_bytes, 60 * kMiB + 20 * kMiB);
}

TEST(WeightedSingleData, ByteSpreadBeatsCountAssignerOnSkewedSizes) {
  // Random heterogeneous sizes: the weighted plan's byte spread must not
  // exceed the unit assigner's.
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    dfs::NameNode nn(dfs::Topology::single_rack(8), 3, 64 * kMiB);
    dfs::RandomPlacement policy;
    Rng rng(seed);
    std::vector<Bytes> sizes;
    for (int i = 0; i < 48; ++i) sizes.push_back((8 + rng.uniform(56)) * kMiB);
    const auto tasks = heterogeneous_tasks(nn, sizes, policy, rng);
    const auto placement = one_process_per_node(nn);

    Rng r1(seed + 50), r2(seed + 50);
    const auto w = plan({&nn, &tasks, &placement, &r1}, kWeighted);
    const auto u = plan({&nn, &tasks, &placement, &r2});

    auto byte_spread = [&](const runtime::Assignment& a) {
      const auto bytes = process_bytes(nn, tasks, a);
      const auto [lo, hi] = std::minmax_element(bytes.begin(), bytes.end());
      return *hi - *lo;
    };
    EXPECT_LE(byte_spread(w.assignment), byte_spread(u.assignment)) << "seed " << seed;
  }
}

TEST(WeightedSingleData, LocalityStaysHighOnRandomLayouts) {
  dfs::NameNode nn(dfs::Topology::single_rack(16), 3, 64 * kMiB);
  dfs::RandomPlacement policy;
  Rng rng(9);
  std::vector<Bytes> sizes;
  for (int i = 0; i < 160; ++i) sizes.push_back((16 + rng.uniform(48)) * kMiB);
  const auto tasks = heterogeneous_tasks(nn, sizes, policy, rng);
  const auto placement = one_process_per_node(nn);
  const auto result = plan({&nn, &tasks, &placement, &rng}, kWeighted);
  // The flow alone places more than 90 % of the bytes locally.
  EXPECT_GT(static_cast<double>(result.matched_bytes) /
                static_cast<double>(result.stats.total_bytes),
            0.9);
  EXPECT_EQ(result.locally_matched + result.randomly_filled, 160u);
}

TEST(WeightedSingleData, StatsConsistentWithEvaluate) {
  dfs::NameNode nn(dfs::Topology::single_rack(8), 3, 64 * kMiB);
  dfs::RandomPlacement policy;
  Rng rng(11);
  const auto tasks = workload::make_single_data_workload(nn, 32, policy, rng);
  const auto placement = one_process_per_node(nn);
  const auto result = plan({&nn, &tasks, &placement, &rng}, kWeighted);
  const auto stats = evaluate_assignment(nn, tasks, result.assignment, placement);
  EXPECT_EQ(stats.total_bytes, 32 * 64 * kMiB);
  EXPECT_GE(stats.local_bytes, result.matched_bytes);  // fill may add lucky locality
}

TEST(WeightedSingleData, EmptyTaskListIsFine) {
  dfs::NameNode nn(dfs::Topology::single_rack(4), 2, kDefaultChunkSize);
  const auto placement = one_process_per_node(nn);
  Rng rng(1);
  const std::vector<runtime::Task> tasks;
  const auto result = plan({&nn, &tasks, &placement, &rng}, kWeighted);
  EXPECT_EQ(result.stats.total_bytes, 0u);
  EXPECT_EQ(result.assignment.size(), 4u);
}

TEST(WeightedSingleData, RejectsMultiInputTasks) {
  dfs::NameNode nn(dfs::Topology::single_rack(4), 2, kDefaultChunkSize);
  dfs::RandomPlacement policy;
  Rng rng(1);
  nn.create_file("a", 2 * kDefaultChunkSize, policy, rng);
  runtime::Task t;
  t.inputs = {0, 1};
  const std::vector<runtime::Task> tasks{t};
  const auto placement = one_process_per_node(nn);
  EXPECT_THROW((void)plan({&nn, &tasks, &placement, &rng}, kWeighted), std::invalid_argument);
}

}  // namespace
}  // namespace opass::core
