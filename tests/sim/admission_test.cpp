// DataNode admission control (xceiver limit) with FIFO queueing.
#include <gtest/gtest.h>

#include <functional>
#include <utility>
#include <vector>

#include "sim/cluster.hpp"

namespace opass::sim {
namespace {

ClusterParams gated_params(std::uint32_t limit) {
  ClusterParams p;
  p.disk_bandwidth = 100.0;
  p.nic_bandwidth = 1000.0;
  p.disk_beta = 0.0;
  p.seek_latency = 0.0;
  p.remote_latency = 0.0;
  p.remote_stream_cap = 0.0;
  p.max_concurrent_serves = limit;
  return p;
}

TEST(Admission, SerializesBeyondTheLimit) {
  // Limit 1: three 100-byte reads of one disk run strictly back-to-back.
  Cluster c(2, gated_params(1));
  std::vector<Seconds> done;
  for (int i = 0; i < 3; ++i)
    c.read(0, 0, 100, [&](Seconds t) { done.push_back(t); });
  c.run();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_DOUBLE_EQ(done[0], 1.0);
  EXPECT_DOUBLE_EQ(done[1], 2.0);
  EXPECT_DOUBLE_EQ(done[2], 3.0);
}

TEST(Admission, LimitTwoSharesThenAdmits) {
  // Limit 2, three reads: first two share the disk (2 s each), the third
  // then runs alone (1 s).
  Cluster c(2, gated_params(2));
  std::vector<Seconds> done;
  for (int i = 0; i < 3; ++i)
    c.read(0, 0, 100, [&](Seconds t) { done.push_back(t); });
  c.run();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_DOUBLE_EQ(done[0], 2.0);
  EXPECT_DOUBLE_EQ(done[1], 2.0);
  EXPECT_DOUBLE_EQ(done[2], 3.0);
}

TEST(Admission, ZeroMeansUnlimited) {
  Cluster c(2, gated_params(0));
  std::vector<Seconds> done;
  for (int i = 0; i < 4; ++i)
    c.read(0, 0, 100, [&](Seconds t) { done.push_back(t); });
  c.run();
  for (Seconds t : done) EXPECT_DOUBLE_EQ(t, 4.0);  // all share fairly
}

TEST(Admission, QueueIsPerServer) {
  Cluster c(3, gated_params(1));
  Seconds d0 = -1, d1 = -1;
  c.read(1, 0, 100, [&](Seconds t) { d0 = t; });
  c.read(0, 2, 100, [&](Seconds t) { d1 = t; });  // different server: no queueing
  c.run();
  EXPECT_DOUBLE_EQ(d0, 1.0);
  EXPECT_DOUBLE_EQ(d1, 1.0);
}

TEST(Admission, InflightCountsQueuedRequests) {
  Cluster c(2, gated_params(1));
  for (int i = 0; i < 3; ++i) c.read(0, 0, 1000, nullptr);
  // Before any completion, all three count as pending at the server.
  EXPECT_EQ(c.inflight_per_node()[0], 3u);
  c.run();
  EXPECT_EQ(c.inflight_per_node()[0], 0u);
}

TEST(Admission, QueuedReadsFailWhenServerDies) {
  Cluster c(2, gated_params(1));
  int completed = 0, failed = 0;
  for (int i = 0; i < 3; ++i)
    c.read(0, 0, 1000, [&](Seconds) { ++completed; }, [&](Seconds) { ++failed; });
  c.fail_node(0, 1.0);  // mid-first-read: the active one and both queued die
  c.run();
  EXPECT_EQ(completed, 0);
  EXPECT_EQ(failed, 3);
}

TEST(Admission, SlotFreedByFailureStillServesOtherTraffic) {
  // Failure of one server must not wedge another server's queue.
  Cluster c(3, gated_params(1));
  Seconds ok = -1;
  c.read(0, 1, 1000, nullptr, [](Seconds) {});
  c.fail_node(1, 0.5);
  c.read(0, 2, 100, [&](Seconds t) { ok = t; });
  c.run();
  EXPECT_GT(ok, 0.0);
}

TEST(Admission, InterleavedQueuesDrainInFifoOrder) {
  // Limit 1 on servers 0 and 1. Reads to the two servers alternate, so the
  // slots of their queues interleave in the one read-slot pool, and each
  // server's first completion issues one more read, which takes the slot that
  // completion just freed and queues behind the server's last waiting read.
  Cluster c(4, gated_params(1));
  std::vector<std::pair<int, Seconds>> done[2];  // per server: (label, end)
  std::function<void(dfs::NodeId, int)> issue = [&](dfs::NodeId server, int label) {
    c.read(2 + server, server, 100, [&, server, label](Seconds t) {
      done[server].push_back({label, t});
      if (label == 0) issue(server, 3);
    });
  };
  for (int label = 0; label < 3; ++label)
    for (dfs::NodeId server = 0; server < 2; ++server) issue(server, label);
  EXPECT_EQ(c.inflight_per_node()[0], 3u);
  EXPECT_EQ(c.inflight_per_node()[1], 3u);
  c.run();

  const std::vector<std::pair<int, Seconds>> in_order{{0, 1.0}, {1, 2.0}, {2, 3.0}, {3, 4.0}};
  for (dfs::NodeId server = 0; server < 2; ++server) {
    EXPECT_EQ(done[server], in_order) << "server " << server;
    EXPECT_EQ(c.admission_waits(server), 3u);
    EXPECT_EQ(c.peak_admission_queue(server), 2u);
  }
  EXPECT_EQ(c.admission_waits(2), 0u);
  EXPECT_EQ(c.peak_admission_queue(2), 0u);
  EXPECT_EQ(c.read_slot_count(), 6u);  // the chained reads reused freed slots
}

TEST(Admission, NodeAddedWhileGatedQueuesLikeTheOthers) {
  Cluster c(2, gated_params(1));
  const dfs::NodeId fresh = c.add_node();
  std::vector<Seconds> fresh_done, old_done;
  for (int i = 0; i < 3; ++i) {
    c.read(0, fresh, 100, [&](Seconds t) { fresh_done.push_back(t); });
    c.read(0, 1, 100, [&](Seconds t) { old_done.push_back(t); });
  }
  c.run();
  EXPECT_EQ(fresh_done, (std::vector<Seconds>{1.0, 2.0, 3.0}));
  EXPECT_EQ(old_done, (std::vector<Seconds>{1.0, 2.0, 3.0}));
  for (dfs::NodeId node : {fresh, dfs::NodeId{1}}) {
    EXPECT_EQ(c.admission_waits(node), 2u);
    EXPECT_EQ(c.peak_admission_queue(node), 2u);
    EXPECT_EQ(c.inflight_per_node()[node], 0u);
  }
}

}  // namespace
}  // namespace opass::sim
