#include "dfs/placement.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

namespace opass::dfs {
namespace {

class PlacementTest : public ::testing::TestWithParam<PlacementKind> {};

TEST_P(PlacementTest, ReturnsDistinctValidNodes) {
  const auto topo = Topology::uniform_racks(12, 3);
  auto policy = make_placement(GetParam());
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const auto reps = policy->place(topo, kInvalidNode, 3, rng);
    ASSERT_EQ(reps.size(), 3u);
    std::set<NodeId> distinct(reps.begin(), reps.end());
    EXPECT_EQ(distinct.size(), 3u);
    for (NodeId n : reps) EXPECT_LT(n, 12u);
  }
}

TEST_P(PlacementTest, SupportsReplicationOne) {
  const auto topo = Topology::single_rack(4);
  auto policy = make_placement(GetParam());
  Rng rng(7);
  EXPECT_EQ(policy->place(topo, kInvalidNode, 1, rng).size(), 1u);
}

TEST_P(PlacementTest, RejectsReplicationAboveClusterSize) {
  const auto topo = Topology::single_rack(2);
  auto policy = make_placement(GetParam());
  Rng rng(7);
  EXPECT_THROW(policy->place(topo, kInvalidNode, 3, rng), std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PlacementTest,
                         ::testing::Values(PlacementKind::kRandom,
                                           PlacementKind::kHdfsDefault,
                                           PlacementKind::kRoundRobin,
                                           PlacementKind::kSpread),
                         [](const auto& param_info) {
                           const std::string name =
                               placement_kind_name(param_info.param);
                           return name == "hdfs-default"
                                      ? "HdfsDefault"
                                      : name == "random"
                                            ? "Random"
                                            : name == "spread" ? "Spread"
                                                               : "RoundRobin";
                         });

TEST(RandomPlacement, CoversAllNodesUniformly) {
  const auto topo = Topology::single_rack(8);
  RandomPlacement policy;
  Rng rng(11);
  std::vector<int> hits(8, 0);
  const int trials = 8000;
  for (int i = 0; i < trials; ++i)
    for (NodeId n : policy.place(topo, kInvalidNode, 3, rng)) ++hits[n];
  // Each node should hold ~ trials * 3 / 8 replicas.
  for (int h : hits) EXPECT_NEAR(h, trials * 3 / 8, trials * 0.05);
}

TEST(HdfsDefaultPlacement, FirstReplicaOnWriter) {
  const auto topo = Topology::uniform_racks(9, 3);
  HdfsDefaultPlacement policy;
  Rng rng(13);
  for (int i = 0; i < 50; ++i) {
    const auto reps = policy.place(topo, /*writer=*/4, 3, rng);
    EXPECT_EQ(reps[0], 4u);
  }
}

TEST(HdfsDefaultPlacement, SecondReplicaOffRack) {
  const auto topo = Topology::uniform_racks(9, 3);
  HdfsDefaultPlacement policy;
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    const auto reps = policy.place(topo, 0, 3, rng);
    EXPECT_NE(topo.rack_of(reps[1]), topo.rack_of(reps[0]));
    // Third replica on the same rack as the second (space permitting).
    EXPECT_EQ(topo.rack_of(reps[2]), topo.rack_of(reps[1]));
    EXPECT_NE(reps[2], reps[1]);
  }
}

TEST(HdfsDefaultPlacement, DegeneratesOnSingleRack) {
  const auto topo = Topology::single_rack(5);
  HdfsDefaultPlacement policy;
  Rng rng(17);
  const auto reps = policy.place(topo, 2, 3, rng);
  EXPECT_EQ(reps[0], 2u);
  std::set<NodeId> distinct(reps.begin(), reps.end());
  EXPECT_EQ(distinct.size(), 3u);
}

TEST(RoundRobinPlacement, IsPerfectlyEven) {
  const auto topo = Topology::single_rack(6);
  RoundRobinPlacement policy;
  Rng rng(1);
  std::vector<int> hits(6, 0);
  for (int i = 0; i < 12; ++i)
    for (NodeId n : policy.place(topo, kInvalidNode, 3, rng)) ++hits[n];
  for (int h : hits) EXPECT_EQ(h, 6);  // 12 chunks * 3 / 6 nodes
}

TEST(MakePlacement, NamesRoundTrip) {
  EXPECT_STREQ(placement_kind_name(PlacementKind::kRandom), "random");
  EXPECT_STREQ(placement_kind_name(PlacementKind::kHdfsDefault), "hdfs-default");
  EXPECT_STREQ(placement_kind_name(PlacementKind::kRoundRobin), "round-robin");
  EXPECT_STREQ(placement_kind_name(PlacementKind::kSpread), "spread");
  EXPECT_EQ(make_placement(PlacementKind::kRandom)->name(), "random");
  EXPECT_EQ(make_placement(PlacementKind::kHdfsDefault)->name(), "hdfs-default");
  EXPECT_EQ(make_placement(PlacementKind::kRoundRobin)->name(), "round-robin");
  EXPECT_EQ(make_placement(PlacementKind::kSpread)->name(), "spread");
}

TEST(SpreadPlacement, AlwaysPicksTheLeastLoadedNodes) {
  const auto topo = Topology::single_rack(4);
  SpreadPlacement policy;
  Rng rng(19);
  // Ties break to the smallest id, and every placement levels the counters:
  // {0,1} -> {2,3} -> {0,1} -> ...
  EXPECT_EQ(policy.place(topo, kInvalidNode, 2, rng), (ReplicaList{0, 1}));
  EXPECT_EQ(policy.place(topo, kInvalidNode, 2, rng), (ReplicaList{2, 3}));
  EXPECT_EQ(policy.place(topo, kInvalidNode, 2, rng), (ReplicaList{0, 1}));
}

TEST(SpreadPlacement, LayoutIsRngIndependent) {
  const auto topo = Topology::single_rack(6);
  SpreadPlacement a, b;
  Rng rng_a(1), rng_b(999);  // different streams, same deterministic layout
  for (int i = 0; i < 24; ++i)
    EXPECT_EQ(a.place(topo, kInvalidNode, 3, rng_a), b.place(topo, kInvalidNode, 3, rng_b));
}

TEST(SpreadPlacement, NewNodeAbsorbsWritesUntilCaughtUp) {
  SpreadPlacement policy;
  Rng rng(23);
  const auto small = Topology::single_rack(4);
  for (int i = 0; i < 8; ++i) policy.place(small, kInvalidNode, 2, rng);
  // Node 4 joins with zero replicas: it must appear in every placement
  // until its counter catches up with the incumbents (4 each).
  const auto grown = Topology::single_rack(5);
  for (int i = 0; i < 4; ++i) {
    const auto reps = policy.place(grown, kInvalidNode, 2, rng);
    EXPECT_TRUE(std::find(reps.begin(), reps.end(), NodeId{4}) != reps.end())
        << "joiner skipped while under-loaded, placement " << i;
  }
}

}  // namespace
}  // namespace opass::dfs
