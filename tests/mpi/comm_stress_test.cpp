// Randomized stress test for the MPI-model communicator.
#include <gtest/gtest.h>

#include <map>

#include "common/rng.hpp"
#include "mpi/comm.hpp"

namespace opass::mpi {
namespace {

sim::ClusterParams fast_net() {
  sim::ClusterParams p;
  p.disk_bandwidth = 1e6;
  p.nic_bandwidth = 1e6;
  p.disk_beta = 0.0;
  p.seek_latency = 0.0;
  p.remote_latency = 0.01;
  p.remote_stream_cap = 0.0;
  return p;
}

TEST(CommStress, RandomSendRecvAllDelivered) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(seed);
    const Rank n = 6;
    sim::Cluster cluster(n, fast_net());
    Comm comm(cluster);

    const int messages = 200;
    std::map<std::pair<Rank, Tag>, int> sent, received;
    for (int i = 0; i < messages; ++i) {
      const auto from = static_cast<Rank>(rng.uniform(n));
      const auto to = static_cast<Rank>(rng.uniform(n));
      const auto tag = static_cast<Tag>(rng.uniform(4));
      ++sent[{to, tag}];
      comm.send(from, to, tag, 8 + rng.uniform(64), static_cast<std::uint64_t>(i));
    }
    // Matching wildcard receives, interleaved across ranks.
    for (const auto& [key, count] : sent) {
      for (int i = 0; i < count; ++i) {
        comm.recv(key.first, kAnySource, key.second,
                  [&received, key](Message) { ++received[key]; });
      }
    }
    cluster.run();
    EXPECT_EQ(received, sent) << "seed " << seed;
    EXPECT_EQ(comm.messages_sent(), static_cast<std::uint64_t>(messages));
  }
}

}  // namespace
}  // namespace opass::mpi
