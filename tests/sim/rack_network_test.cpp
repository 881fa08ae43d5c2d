// Multi-rack network model: per-rack uplinks, cross-rack latency.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "sim/cluster.hpp"

namespace opass::sim {
namespace {

ClusterParams racked_params() {
  ClusterParams p;
  p.disk_bandwidth = 1000.0;
  p.nic_bandwidth = 100.0;
  p.disk_beta = 0.0;
  p.seek_latency = 0.0;
  p.remote_latency = 0.0;
  p.remote_stream_cap = 0.0;
  p.rack_uplink_bandwidth = 100.0;  // same as one NIC: heavily oversubscribed
  p.cross_rack_latency = 1.0;
  return p;
}

TEST(RackNetwork, RackOfReflectsTopology) {
  const auto topo = dfs::Topology::uniform_racks(6, 3);
  Cluster c(topo, racked_params());
  for (dfs::NodeId n = 0; n < 6; ++n) EXPECT_EQ(c.rack_of(n), topo.rack_of(n));
  EXPECT_THROW(c.rack_of(9), std::invalid_argument);
}

TEST(RackNetwork, FlatClusterHasOneRack) {
  Cluster c(4);
  for (dfs::NodeId n = 0; n < 4; ++n) EXPECT_EQ(c.rack_of(n), 0u);
}

TEST(RackNetwork, SameRackReadSkipsCrossRackLatency) {
  // Round-robin racks: nodes 0 and 3 share rack 0.
  const auto topo = dfs::Topology::uniform_racks(6, 3);
  Cluster c(topo, racked_params());
  Seconds same_rack = -1;
  c.read(0, 3, 100, [&](Seconds t) { same_rack = t; });
  c.run();
  EXPECT_DOUBLE_EQ(same_rack, 1.0);  // no cross-rack latency, no uplink
}

TEST(RackNetwork, TrulyCrossRackReadAddsLatency) {
  const auto topo = dfs::Topology::uniform_racks(6, 3);
  Cluster c(topo, racked_params());
  Seconds t01 = -1;
  c.read(0, 1, 100, [&](Seconds t) { t01 = t; });  // rack 0 <- rack 1
  c.run();
  // 1 s cross-rack latency + 1 s transfer.
  EXPECT_DOUBLE_EQ(t01, 2.0);
}

TEST(RackNetwork, UplinkIsSharedAcrossCrossRackReads) {
  // Two readers on rack 0 pull from two distinct servers on rack 1: the
  // rack-1 uplink (100 B/s) is the bottleneck, halving each transfer.
  const auto topo = dfs::Topology::uniform_racks(6, 2);  // even=rack0, odd=rack1
  Cluster c(topo, racked_params());
  Seconds d1 = -1, d2 = -1;
  c.read(0, 1, 100, [&](Seconds t) { d1 = t; });
  c.read(2, 3, 100, [&](Seconds t) { d2 = t; });
  c.run();
  EXPECT_DOUBLE_EQ(d1, 3.0);  // 1 s latency + 100 B at 50 B/s
  EXPECT_DOUBLE_EQ(d2, 3.0);
}

TEST(RackNetwork, SameRackReadsBypassUplink) {
  const auto topo = dfs::Topology::uniform_racks(6, 2);
  Cluster c(topo, racked_params());
  Seconds d1 = -1, d2 = -1;
  c.read(0, 2, 100, [&](Seconds t) { d1 = t; });  // rack 0 internal
  c.read(4, 2, 100, [&](Seconds t) { d2 = t; });  // rack 0 internal, same server
  c.run();
  // Server 2's NIC-out (100 B/s) is shared, the uplink is untouched.
  EXPECT_DOUBLE_EQ(d1, 2.0);
  EXPECT_DOUBLE_EQ(d2, 2.0);
}

TEST(RackNetwork, ZeroUplinkBandwidthDisablesRackModel) {
  auto p = racked_params();
  p.rack_uplink_bandwidth = 0;
  p.cross_rack_latency = 0;
  const auto topo = dfs::Topology::uniform_racks(4, 2);
  Cluster c(topo, p);
  Seconds done = -1;
  c.read(0, 1, 100, [&](Seconds t) { done = t; });
  c.run();
  EXPECT_DOUBLE_EQ(done, 1.0);  // flat-network timing
}

TEST(RackNetwork, CrossRackSendUsesUplink) {
  const auto topo = dfs::Topology::uniform_racks(4, 2);
  Cluster c(topo, racked_params());
  Seconds done = -1;
  const dfs::NodeId src = 0;
  c.send({&src, 1}, 1, 100, [&](dfs::NodeId, Seconds t) { done = t; });
  c.run();
  EXPECT_DOUBLE_EQ(done, 2.0);  // 1 s cross-rack latency + 1 s transfer
}

// A batch mixing a loopback, same-rack and cross-rack sources (two start
// times) delivers every message exactly as one send per source would.
TEST(RackNetwork, BatchedSendMatchesOneSendPerSource) {
  const auto topo = dfs::Topology::uniform_racks(6, 2);
  const std::vector<dfs::NodeId> sources = {0, 1, 2, 3, 4, 5, 3};
  using Arrivals = std::vector<std::pair<dfs::NodeId, Seconds>>;
  const auto record = [](Arrivals& into) {
    return [&into](dfs::NodeId src, Seconds t) { into.emplace_back(src, t); };
  };
  Arrivals batched, single;
  {
    Cluster c(topo, racked_params());
    c.send(sources, /*dst=*/3, 50, record(batched));
    c.run();
  }
  {
    Cluster c(topo, racked_params());
    for (const dfs::NodeId& src : sources) c.send({&src, 1}, 3, 50, record(single));
    c.run();
  }
  ASSERT_EQ(batched.size(), sources.size());
  EXPECT_EQ(batched, single);
  {
    Cluster c(topo, racked_params());
    c.send(sources, 3, 50, nullptr);  // no arrival callback: the traffic still flows
    EXPECT_DOUBLE_EQ(c.run(), batched.back().second);
  }
  // Node 3's two loopback messages arrive first, after the bare latency.
  EXPECT_EQ(batched[0], std::make_pair(dfs::NodeId{3}, racked_params().remote_latency));
  EXPECT_EQ(batched[1], batched[0]);
}

}  // namespace
}  // namespace opass::sim
