#include "workload/paraview.hpp"

#include <gtest/gtest.h>

#include <set>

namespace opass::workload {
namespace {

TEST(ParaView, PaperDefaults) {
  dfs::NameNode nn(dfs::Topology::single_rack(64), 3, kDefaultChunkSize);
  dfs::RandomPlacement policy;
  Rng rng(1);
  const auto w = make_paraview_workload(nn, policy, rng);
  EXPECT_EQ(w.series.size(), 640u);
  EXPECT_EQ(w.tasks.size(), 640u);
  EXPECT_EQ(w.steps.size(), 10u);  // 640 / 64
  for (const auto& step : w.steps) EXPECT_EQ(step.size(), 64u);
  // ~26 GB total, 3.8 GB per step at 56 MiB per dataset (within rounding).
  Bytes file_bytes = 0;
  for (dfs::FileId f = 0; f < nn.file_count(); ++f) file_bytes += nn.file(f).size;
  EXPECT_NEAR(to_gib(file_bytes), 35.0, 10.0);
  for (const auto& t : w.tasks) {
    EXPECT_EQ(t.inputs.size(), 1u);
    EXPECT_EQ(nn.chunk(t.inputs[0]).size, 56 * kMiB);
    EXPECT_GT(t.compute_time, 0.0);
  }
}

TEST(ParaView, StepsPartitionTheSeries) {
  dfs::NameNode nn(dfs::Topology::single_rack(8), 3, kDefaultChunkSize);
  dfs::RandomPlacement policy;
  Rng rng(2);
  ParaViewSpec spec;
  spec.dataset_count = 10;
  spec.datasets_per_step = 4;  // steps of 4, 4, 2
  const auto w = make_paraview_workload(nn, policy, rng, spec);
  ASSERT_EQ(w.steps.size(), 3u);
  EXPECT_EQ(w.steps[0].size(), 4u);
  EXPECT_EQ(w.steps[2].size(), 2u);
  std::set<runtime::TaskId> all;
  for (const auto& step : w.steps)
    for (auto t : step) EXPECT_TRUE(all.insert(t).second);
  EXPECT_EQ(all.size(), 10u);
}

TEST(ParaView, Validation) {
  dfs::NameNode nn(dfs::Topology::single_rack(8), 3, kDefaultChunkSize);
  dfs::RandomPlacement policy;
  Rng rng(3);
  ParaViewSpec bad;
  bad.dataset_count = 0;
  EXPECT_THROW(make_paraview_workload(nn, policy, rng, bad), std::invalid_argument);
  bad = {};
  bad.datasets_per_step = 9999;
  EXPECT_THROW(make_paraview_workload(nn, policy, rng, bad), std::invalid_argument);
  bad = {};
  bad.bytes_per_dataset = nn.chunk_size() + 1;
  EXPECT_THROW(make_paraview_workload(nn, policy, rng, bad), std::invalid_argument);
}

}  // namespace
}  // namespace opass::workload
