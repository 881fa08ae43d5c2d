#include "opass/process_index.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "dfs/placement.hpp"

namespace opass::core {
namespace {

/// The O(b·m) rescan the planners used before the heap: each slot goes to
/// the first process with the least load + quota.
std::vector<std::uint32_t> naive_quotas(const std::vector<std::uint32_t>& load,
                                        std::uint32_t b) {
  const auto m = static_cast<std::uint32_t>(load.size());
  std::vector<std::uint32_t> quota(m, 0);
  for (std::uint32_t granted = 0; granted < b; ++granted) {
    std::uint32_t best = 0;
    for (std::uint32_t p = 1; p < m; ++p)
      if (load[p] + quota[p] < load[best] + quota[best]) best = p;
    ++quota[best];
  }
  return quota;
}

std::vector<std::uint32_t> row(const Adjacency& adj, std::uint32_t r) {
  const auto span = adj.row(r);
  return {span.begin(), span.end()};
}

TEST(LeastLoadedQuotas, MatchesNaiveScanOnTiedRandomLoads) {
  Rng rng(21);
  for (int trial = 0; trial < 300; ++trial) {
    const auto m = static_cast<std::uint32_t>(1 + rng.uniform(40));
    // Loads drawn from a tiny range, so most processes tie with others.
    std::vector<std::uint32_t> load(m);
    for (auto& l : load) l = static_cast<std::uint32_t>(rng.uniform(4));
    const auto b = static_cast<std::uint32_t>(rng.uniform(3 * m + 1));
    EXPECT_EQ(least_loaded_quotas(load, b), naive_quotas(load, b))
        << "trial " << trial << " m=" << m << " b=" << b;
  }
}

TEST(LeastLoadedQuotas, EdgeShapes) {
  EXPECT_EQ(least_loaded_quotas({5}, 7), std::vector<std::uint32_t>{7});  // m = 1
  EXPECT_EQ(least_loaded_quotas({3, 0, 3}, 0), (std::vector<std::uint32_t>{0, 0, 0}));
  // b > m: processes 1 and 2 are topped up to load 2 first, then the slots
  // go round-robin from the lowest index.
  const std::vector<std::uint32_t> load{2, 0, 1, 2};
  EXPECT_EQ(least_loaded_quotas(load, 9), (std::vector<std::uint32_t>{2, 4, 2, 1}));
  EXPECT_EQ(least_loaded_quotas(load, 9), naive_quotas(load, 9));
  EXPECT_THROW((void)least_loaded_quotas({}, 1), std::invalid_argument);
}

TEST(OneProcessPerNode, DefaultIsOnePerClusterNode) {
  dfs::NameNode nn(dfs::Topology::single_rack(4), 2, kDefaultChunkSize);
  const auto p = one_process_per_node(nn);
  ASSERT_EQ(p.size(), 4u);
  for (std::uint32_t i = 0; i < 4; ++i) EXPECT_EQ(p[i], i);
}

TEST(OneProcessPerNode, ExplicitProcessCountWraps) {
  dfs::NameNode nn(dfs::Topology::single_rack(4), 2, kDefaultChunkSize);
  const auto p = one_process_per_node(nn, 6);
  ASSERT_EQ(p.size(), 6u);
  EXPECT_EQ(p[4], 0u);
  EXPECT_EQ(p[5], 1u);
}

TEST(ProcessesByNode, EmptyNodesAndSharedNodes) {
  dfs::NameNode nn(dfs::Topology::single_rack(4), 1, kDefaultChunkSize);
  // Node 1 hosts three processes (listed out of order), node 3 none.
  const ProcessPlacement placement{2, 1, 0, 1, 2, 1};
  const Adjacency by_node = processes_by_node(nn, placement);
  ASSERT_EQ(by_node.rows(), 4u);
  EXPECT_EQ(row(by_node, 0), std::vector<std::uint32_t>{2});
  EXPECT_EQ(row(by_node, 1), (std::vector<std::uint32_t>{1, 3, 5}));
  EXPECT_EQ(row(by_node, 2), (std::vector<std::uint32_t>{0, 4}));
  EXPECT_TRUE(by_node.row(3).empty());
  EXPECT_THROW((void)processes_by_node(nn, {0, 4}), std::invalid_argument);
}

TEST(ProcessesByNode, RackIndexGroupsProcessesByRack) {
  dfs::NameNode nn(dfs::Topology::uniform_racks(4, 2), 1, kDefaultChunkSize);  // rack = node % 2
  const Adjacency by_rack = processes_by_rack(nn, {3, 0, 2, 1});
  ASSERT_EQ(by_rack.rows(), 2u);
  EXPECT_EQ(row(by_rack, 0), (std::vector<std::uint32_t>{1, 2}));
  EXPECT_EQ(row(by_rack, 1), (std::vector<std::uint32_t>{0, 3}));
  EXPECT_THROW((void)processes_by_rack(nn, {7}), std::invalid_argument);
}

TEST(ProcessesByNode, ReplicaHoldersAreSortedAndTransposeInverts) {
  dfs::NameNode nn(dfs::Topology::single_rack(4), 2, kDefaultChunkSize);
  dfs::RandomPlacement policy;
  Rng rng(3);
  const auto f = nn.create_file("f", 2 * kDefaultChunkSize, policy, rng);
  const std::vector<dfs::ChunkId> chunks = nn.file(f).chunks;
  // Two processes per node: process p and p + 4 share node p.
  const Adjacency holders =
      replica_holders(nn, chunks, processes_by_node(nn, {0, 1, 2, 3, 0, 1, 2, 3}));
  ASSERT_EQ(holders.rows(), 2u);
  for (std::uint32_t k = 0; k < 2; ++k) {
    std::vector<std::uint32_t> expected;
    for (std::uint32_t p = 0; p < 8; ++p)
      if (nn.chunk(chunks[k]).has_replica_on(p % 4)) expected.push_back(p);
    EXPECT_EQ(row(holders, k), expected) << "chunk " << k;
  }
  const Adjacency by_process = transpose(holders, 8);
  ASSERT_EQ(by_process.rows(), 8u);
  for (std::uint32_t p = 0; p < 8; ++p) {
    std::vector<std::uint32_t> expected;
    for (std::uint32_t k = 0; k < 2; ++k)
      if (nn.chunk(chunks[k]).has_replica_on(p % 4)) expected.push_back(k);
    EXPECT_EQ(row(by_process, p), expected) << "process " << p;
  }
}

}  // namespace
}  // namespace opass::core
