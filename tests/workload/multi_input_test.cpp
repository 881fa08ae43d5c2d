#include "workload/multi_input.hpp"

#include <gtest/gtest.h>

#include <set>

namespace opass::workload {
namespace {

TEST(MultiInput, PaperShapeThreeInputs) {
  dfs::NameNode nn(dfs::Topology::single_rack(8), 3, kDefaultChunkSize);
  dfs::RandomPlacement policy;
  Rng rng(1);
  const auto tasks = make_multi_input_workload(nn, 10, policy, rng);
  ASSERT_EQ(tasks.size(), 10u);
  for (const auto& t : tasks) {
    ASSERT_EQ(t.inputs.size(), 3u);
    EXPECT_EQ(nn.chunk(t.inputs[0]).size, 30 * kMiB);
    EXPECT_EQ(nn.chunk(t.inputs[1]).size, 20 * kMiB);
    EXPECT_EQ(nn.chunk(t.inputs[2]).size, 10 * kMiB);
  }
  // 3 datasets x 10 files each.
  EXPECT_EQ(nn.file_count(), 30u);
  Bytes file_bytes = 0;
  for (dfs::FileId f = 0; f < nn.file_count(); ++f) file_bytes += nn.file(f).size;
  EXPECT_EQ(file_bytes, 10u * 60 * kMiB);
}

TEST(MultiInput, InputsAreDistinctChunks) {
  dfs::NameNode nn(dfs::Topology::single_rack(8), 3, kDefaultChunkSize);
  dfs::RandomPlacement policy;
  Rng rng(2);
  const auto tasks = make_multi_input_workload(nn, 6, policy, rng);
  std::set<dfs::ChunkId> all;
  for (const auto& t : tasks)
    for (auto c : t.inputs) EXPECT_TRUE(all.insert(c).second);
  EXPECT_EQ(all.size(), 18u);
}

TEST(MultiInput, CustomSpec) {
  dfs::NameNode nn(dfs::Topology::single_rack(8), 3, kDefaultChunkSize);
  dfs::RandomPlacement policy;
  Rng rng(3);
  MultiInputSpec spec;
  spec.input_sizes = {5 * kMiB, 15 * kMiB};
  spec.compute_time = 2.0;
  const auto tasks = make_multi_input_workload(nn, 4, policy, rng, spec);
  for (const auto& t : tasks) {
    EXPECT_EQ(t.inputs.size(), 2u);
    EXPECT_EQ(t.compute_time, 2.0);
  }
}

TEST(MultiInput, Validation) {
  dfs::NameNode nn(dfs::Topology::single_rack(8), 3, kDefaultChunkSize);
  dfs::RandomPlacement policy;
  Rng rng(4);
  EXPECT_THROW(make_multi_input_workload(nn, 0, policy, rng), std::invalid_argument);
  MultiInputSpec empty;
  empty.input_sizes = {};
  EXPECT_THROW(make_multi_input_workload(nn, 2, policy, rng, empty), std::invalid_argument);
  MultiInputSpec oversize;
  oversize.input_sizes = {nn.chunk_size() + 1};
  EXPECT_THROW(make_multi_input_workload(nn, 2, policy, rng, oversize),
               std::invalid_argument);
}

}  // namespace
}  // namespace opass::workload
