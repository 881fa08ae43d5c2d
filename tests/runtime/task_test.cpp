#include "runtime/task.hpp"

#include <gtest/gtest.h>

#include "dfs/namenode.hpp"

namespace opass::runtime {
namespace {

struct TaskFixture : ::testing::Test {
  TaskFixture()
      : nn(dfs::Topology::single_rack(6), 2, kDefaultChunkSize), rng(1) {}
  dfs::NameNode nn;
  dfs::RandomPlacement policy;
  Rng rng;
};

TEST_F(TaskFixture, SingleInputTasksOnePerChunk) {
  const auto fid = nn.create_file("a", 5 * kDefaultChunkSize, policy, rng);
  const auto tasks = single_input_tasks(nn, {fid});
  ASSERT_EQ(tasks.size(), 5u);
  for (std::uint32_t i = 0; i < 5; ++i) {
    EXPECT_EQ(tasks[i].id, i);
    ASSERT_EQ(tasks[i].inputs.size(), 1u);
    EXPECT_EQ(tasks[i].inputs[0], nn.file(fid).chunks[i]);
    EXPECT_EQ(tasks[i].compute_time, 0.0);
  }
}

TEST_F(TaskFixture, SingleInputTasksAcrossFiles) {
  const auto a = nn.create_file("a", 2 * kDefaultChunkSize, policy, rng);
  const auto b = nn.create_file("b", 3 * kDefaultChunkSize, policy, rng);
  const auto tasks = single_input_tasks(nn, {a, b}, 1.5);
  ASSERT_EQ(tasks.size(), 5u);
  for (const auto& t : tasks) EXPECT_EQ(t.compute_time, 1.5);
  // Dense task ids across file boundaries.
  for (std::uint32_t i = 0; i < 5; ++i) EXPECT_EQ(tasks[i].id, i);
}

TEST_F(TaskFixture, InputBytesSumsChunkSizes) {
  const auto fid = nn.create_file("a", 2 * kDefaultChunkSize + kMiB, policy, rng);
  Task t;
  const auto& chunks = nn.file(fid).chunks;
  t.inputs.assign(chunks.begin(), chunks.end());
  EXPECT_EQ(t.input_bytes(nn), 2 * kDefaultChunkSize + kMiB);
}

TEST_F(TaskFixture, TotalTaskBytes) {
  const auto fid = nn.create_file("a", 4 * kDefaultChunkSize, policy, rng);
  const auto tasks = single_input_tasks(nn, {fid});
  EXPECT_EQ(total_task_bytes(nn, tasks), 4 * kDefaultChunkSize);
}

}  // namespace
}  // namespace opass::runtime
