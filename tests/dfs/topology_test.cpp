#include "dfs/topology.hpp"

#include <gtest/gtest.h>

namespace opass::dfs {
namespace {

TEST(Topology, SingleRack) {
  const auto t = Topology::single_rack(8);
  EXPECT_EQ(t.node_count(), 8u);
  EXPECT_EQ(t.rack_count(), 1u);
  for (NodeId n = 0; n < 8; ++n) EXPECT_EQ(t.rack_of(n), 0u);
  EXPECT_EQ(t.nodes_on_rack(0).size(), 8u);
}

TEST(Topology, UniformRacksRoundRobin) {
  const auto t = Topology::uniform_racks(10, 3);
  EXPECT_EQ(t.rack_count(), 3u);
  EXPECT_EQ(t.rack_of(0), 0u);
  EXPECT_EQ(t.rack_of(1), 1u);
  EXPECT_EQ(t.rack_of(2), 2u);
  EXPECT_EQ(t.rack_of(3), 0u);
  EXPECT_EQ(t.nodes_on_rack(0).size(), 4u);  // 0, 3, 6, 9
  EXPECT_EQ(t.nodes_on_rack(2).size(), 3u);  // 2, 5, 8
}

TEST(Topology, RejectsBadShapes) {
  EXPECT_THROW(Topology::uniform_racks(0, 1), std::invalid_argument);
  EXPECT_THROW(Topology::uniform_racks(4, 0), std::invalid_argument);
  EXPECT_THROW(Topology::uniform_racks(4, 5), std::invalid_argument);
}

TEST(Topology, RackOfOutOfRangeThrows) {
  const auto t = Topology::single_rack(2);
  EXPECT_THROW(t.rack_of(2), std::invalid_argument);
  EXPECT_THROW(t.nodes_on_rack(1), std::invalid_argument);
}

TEST(Topology, AddNodeExtends) {
  auto t = Topology::single_rack(2);
  const NodeId added = t.add_node(0);
  EXPECT_EQ(added, 2u);
  EXPECT_EQ(t.node_count(), 3u);
  EXPECT_EQ(t.rack_of(2), 0u);
}

TEST(Topology, AddNodeOnNewRackThrows) {
  auto t = Topology::uniform_racks(4, 2);
  EXPECT_THROW(t.add_node(2), std::invalid_argument);
  EXPECT_EQ(t.node_count(), 4u);
  EXPECT_EQ(t.rack_count(), 2u);
  EXPECT_EQ(t.rack_of(t.add_node(1)), 1u);
}

}  // namespace
}  // namespace opass::dfs
