// Randomized property tests of the NameNode balancer and re-replication.
#include <gtest/gtest.h>

#include "dfs/namenode.hpp"

namespace opass::dfs {
namespace {

TEST(BalanceProperty, BalancerConvergesOnRandomSkewedLayouts) {
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    Rng rng(seed);
    const std::uint32_t nodes = 8 + static_cast<std::uint32_t>(rng.uniform(12));
    NameNode nn(Topology::single_rack(nodes), 3, kDefaultChunkSize);
    // Writer-local placement with a hot writer produces a skewed layout.
    HdfsDefaultPlacement policy;
    const std::uint32_t files = 20 + static_cast<std::uint32_t>(rng.uniform(40));
    for (std::uint32_t f = 0; f < files; ++f) {
      nn.create_file(std::string("f").append(std::to_string(f)), kDefaultChunkSize, policy,
                     rng, static_cast<NodeId>(rng.uniform(3)));  // writers only on 0..2
    }

    nn.balance(rng, /*tolerance=*/1);
    nn.check_invariants();

    const auto counts = nn.node_chunk_counts();
    std::uint32_t hi = 0, lo = UINT32_MAX;
    for (auto c : counts) {
      hi = std::max(hi, c);
      lo = std::min(lo, c);
    }
    // Either within tolerance, or no legal move exists (every chunk on the
    // hottest node already replicated on the coldest) — with r=3 and many
    // chunks the former always holds in practice.
    EXPECT_LE(hi - lo, 2u) << "seed " << seed;
  }
}

TEST(BalanceProperty, BalancePreservesReplicationAndBytes) {
  for (std::uint64_t seed = 50; seed < 58; ++seed) {
    Rng rng(seed);
    NameNode nn(Topology::single_rack(10), 2, kDefaultChunkSize);
    HdfsDefaultPlacement policy;
    for (int f = 0; f < 30; ++f)
      nn.create_file(std::string("f").append(std::to_string(f)), kDefaultChunkSize, policy,
                     rng, 0);

    const auto file_bytes = [&] {
      Bytes total = 0;
      for (FileId f = 0; f < nn.file_count(); ++f) total += nn.file(f).size;
      return total;
    };
    const Bytes before = file_bytes();
    Bytes replica_before = 0;
    for (Bytes b : nn.node_bytes()) replica_before += b;

    nn.balance(rng, 1);
    nn.check_invariants();

    EXPECT_EQ(file_bytes(), before);
    Bytes replica_after = 0;
    for (Bytes b : nn.node_bytes()) replica_after += b;
    EXPECT_EQ(replica_after, replica_before);
  }
}

TEST(BalanceProperty, DecommissionThenBalanceOnRandomLayouts) {
  for (std::uint64_t seed = 100; seed < 106; ++seed) {
    Rng rng(seed);
    NameNode nn(Topology::single_rack(12), 3, kDefaultChunkSize);
    RandomPlacement policy;
    nn.create_file("big", 40 * kDefaultChunkSize, policy, rng);

    nn.decommission_node(static_cast<NodeId>(rng.uniform(12)), rng);
    nn.check_invariants();
    for (ChunkId c = 0; c < nn.chunk_count(); ++c)
      EXPECT_EQ(nn.locations(c).size(), 3u);

    nn.balance(rng, 2);
    nn.check_invariants();
  }
}

}  // namespace
}  // namespace opass::dfs
