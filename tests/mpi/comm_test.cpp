#include "mpi/comm.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <set>

namespace opass::mpi {
namespace {

sim::ClusterParams fast_net() {
  sim::ClusterParams p;
  p.disk_bandwidth = 100.0;
  p.nic_bandwidth = 100.0;  // bytes/s: message timing is exact and visible
  p.disk_beta = 0.0;
  p.seek_latency = 0.0;
  p.remote_latency = 0.5;
  p.remote_stream_cap = 0.0;
  return p;
}

TEST(Comm, SendThenRecvDelivers) {
  sim::Cluster cluster(4, fast_net());
  Comm comm(cluster);
  std::optional<Message> got;
  comm.send(1, 2, /*tag=*/7, /*bytes=*/100, /*value=*/42);
  comm.recv(2, 1, 7, [&](Message m) { got = m; });
  cluster.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->source, 1u);
  EXPECT_EQ(got->tag, 7);
  EXPECT_EQ(got->value, 42u);
  // 0.5 s latency + 100 B at 100 B/s.
  EXPECT_DOUBLE_EQ(got->delivered_at, 1.5);
}

TEST(Comm, RecvBeforeSendAlsoDelivers) {
  sim::Cluster cluster(4, fast_net());
  Comm comm(cluster);
  std::optional<Message> got;
  comm.recv(2, 1, 7, [&](Message m) { got = m; });
  comm.send(1, 2, 7, 100, 9);
  cluster.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->value, 9u);
}

TEST(Comm, WildcardsMatchAnySourceAndTag) {
  sim::Cluster cluster(4, fast_net());
  Comm comm(cluster);
  std::vector<std::uint64_t> got;
  comm.recv(0, kAnySource, kAnyTag, [&](Message m) { got.push_back(m.value); });
  comm.recv(0, kAnySource, kAnyTag, [&](Message m) { got.push_back(m.value); });
  comm.send(1, 0, 3, 10, 100);
  comm.send(2, 0, 5, 10, 200);
  cluster.run();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(std::set<std::uint64_t>(got.begin(), got.end()),
            (std::set<std::uint64_t>{100, 200}));
}

TEST(Comm, TagFilteringHoldsBackNonMatching) {
  sim::Cluster cluster(4, fast_net());
  Comm comm(cluster);
  std::optional<Message> got;
  comm.send(1, 2, /*tag=*/1, 10, 111);
  comm.send(1, 2, /*tag=*/9, 10, 999);
  comm.recv(2, 1, 9, [&](Message m) { got = m; });
  cluster.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->value, 999u);  // the tag-1 message stays queued
}

TEST(Comm, PairwiseFifoOrdering) {
  sim::Cluster cluster(2, fast_net());
  Comm comm(cluster);
  std::vector<std::uint64_t> order;
  for (std::uint64_t i = 0; i < 5; ++i) comm.send(0, 1, 1, 10, i);
  for (int i = 0; i < 5; ++i)
    comm.recv(1, 0, 1, [&](Message m) { order.push_back(m.value); });
  cluster.run();
  EXPECT_EQ(order, (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
}

TEST(Comm, SameNodeLoopbackWorks) {
  sim::Cluster cluster(2, fast_net());
  Comm comm(cluster);
  // A rank messaging itself stays on its node.
  std::optional<Message> got;
  comm.send(0, 0, 1, 1000, 5);
  comm.recv(0, 0, 1, [&](Message m) { got = m; });
  cluster.run();
  ASSERT_TRUE(got.has_value());
  // Loopback pays only the software latency, not wire time.
  EXPECT_DOUBLE_EQ(got->delivered_at, 0.5);
}

TEST(Comm, MessageAccounting) {
  sim::Cluster cluster(3, fast_net());
  Comm comm(cluster);
  comm.send(0, 1, 1, 100, 0);
  comm.send(1, 2, 1, 50, 0);
  cluster.run();
  EXPECT_EQ(comm.messages_sent(), 2u);
  EXPECT_EQ(comm.bytes_sent(), 150u);
}

TEST(Comm, Validation) {
  sim::Cluster cluster(2, fast_net());
  Comm comm(cluster);
  EXPECT_THROW(comm.send(0, 9, 1, 1, 0), std::invalid_argument);
  EXPECT_THROW(comm.send(0, 1, -3, 1, 0), std::invalid_argument);  // reserved tags
  EXPECT_THROW(comm.recv(9, 0, 1, [](Message) {}), std::invalid_argument);
  EXPECT_THROW(comm.node_of(9), std::invalid_argument);
}

}  // namespace
}  // namespace opass::mpi
