#include "dfs/namenode.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

namespace opass::dfs {
namespace {

NameNode make_nn(std::uint32_t nodes = 8, std::uint32_t r = 3) {
  return NameNode(Topology::single_rack(nodes), r, kDefaultChunkSize);
}

TEST(NameNode, ConstructionValidation) {
  EXPECT_THROW(NameNode(Topology::single_rack(2), 3), std::invalid_argument);
  EXPECT_THROW(NameNode(Topology::single_rack(4), 0), std::invalid_argument);
  EXPECT_THROW(NameNode(Topology::single_rack(4), 2, 0), std::invalid_argument);
}

TEST(NameNode, CreateFileSplitsIntoChunks) {
  auto nn = make_nn();
  RandomPlacement policy;
  Rng rng(3);
  const FileId fid = nn.create_file("data", 3 * kDefaultChunkSize + kMiB, policy, rng);
  const auto& f = nn.file(fid);
  EXPECT_EQ(f.size, 3 * kDefaultChunkSize + kMiB);
  ASSERT_EQ(f.chunks.size(), 4u);
  // First chunks are full size, the last carries the remainder.
  for (int i = 0; i < 3; ++i) EXPECT_EQ(nn.chunk(f.chunks[i]).size, kDefaultChunkSize);
  EXPECT_EQ(nn.chunk(f.chunks[3]).size, kMiB);
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(nn.chunk(f.chunks[i]).index_in_file, i);
    EXPECT_EQ(nn.chunk(f.chunks[i]).file, fid);
  }
}

TEST(NameNode, EveryChunkHasRDistinctReplicas) {
  auto nn = make_nn(8, 3);
  RandomPlacement policy;
  Rng rng(5);
  nn.create_file("a", 10 * kDefaultChunkSize, policy, rng);
  for (ChunkId c = 0; c < nn.chunk_count(); ++c) {
    EXPECT_EQ(nn.locations(c).size(), 3u);
  }
  nn.check_invariants();
}

TEST(NameNode, RejectsEmptyFile) {
  auto nn = make_nn();
  RandomPlacement policy;
  Rng rng(5);
  EXPECT_THROW(nn.create_file("e", 0, policy, rng), std::invalid_argument);
}

TEST(NameNode, NodeInventoriesAreConsistent) {
  auto nn = make_nn(6, 2);
  RandomPlacement policy;
  Rng rng(7);
  nn.create_file("a", 20 * kDefaultChunkSize, policy, rng);
  const auto counts = nn.node_chunk_counts();
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), 0u), 40u);  // 20 chunks * 2
  const auto bytes = nn.node_bytes();
  Bytes total = 0;
  for (Bytes b : bytes) total += b;
  EXPECT_EQ(total, 2 * 20 * kDefaultChunkSize);
}

TEST(NameNode, OutOfRangeAccessorsThrow) {
  auto nn = make_nn();
  EXPECT_THROW(nn.file(0), std::invalid_argument);
  EXPECT_THROW(nn.chunk(0), std::invalid_argument);
  EXPECT_THROW(nn.chunks_on_node(99), std::invalid_argument);
}

TEST(NameNode, AddNodeStartsEmpty) {
  auto nn = make_nn(4, 2);
  RandomPlacement policy;
  Rng rng(11);
  nn.create_file("a", 8 * kDefaultChunkSize, policy, rng);
  const NodeId added = nn.add_node();
  EXPECT_EQ(nn.node_count(), 5u);
  EXPECT_TRUE(nn.chunks_on_node(added).empty());
  nn.check_invariants();
}

TEST(NameNode, DecommissionReReplicates) {
  auto nn = make_nn(8, 3);
  RandomPlacement policy;
  Rng rng(13);
  nn.create_file("a", 30 * kDefaultChunkSize, policy, rng);
  const auto before = nn.chunks_on_node(2).size();
  ASSERT_GT(before, 0u);
  nn.decommission_node(2, rng);
  EXPECT_TRUE(nn.is_decommissioned(2));
  EXPECT_TRUE(nn.chunks_on_node(2).empty());
  // Replication factor restored everywhere, never on the dead node.
  for (ChunkId c = 0; c < nn.chunk_count(); ++c) {
    EXPECT_EQ(nn.locations(c).size(), 3u);
    EXPECT_FALSE(nn.chunk(c).has_replica_on(2));
  }
  nn.check_invariants();
}

TEST(NameNode, DecommissionTwiceThrows) {
  auto nn = make_nn(8, 3);
  Rng rng(13);
  nn.decommission_node(2, rng);
  EXPECT_THROW(nn.decommission_node(2, rng), std::invalid_argument);
}

TEST(NameNode, DecommissionBelowReplicationThrows) {
  auto nn = make_nn(3, 3);
  Rng rng(13);
  EXPECT_THROW(nn.decommission_node(0, rng), std::invalid_argument);
}

TEST(NameNode, BalanceTightensSpread) {
  // Start from a deliberately skewed layout (writer-local placement with a
  // fixed writer), then balance.
  auto nn = make_nn(8, 2);
  HdfsDefaultPlacement policy;
  Rng rng(17);
  for (int i = 0; i < 24; ++i)
    nn.create_file(std::string("f").append(std::to_string(i)), kDefaultChunkSize, policy, rng,
                   /*writer=*/0);

  auto spread = [&] {
    const auto counts = nn.node_chunk_counts();
    std::uint32_t hi = 0, lo = UINT32_MAX;
    for (auto c : counts) {
      hi = std::max(hi, c);
      lo = std::min(lo, c);
    }
    return std::pair{hi, lo};
  };
  const auto before = spread();
  ASSERT_GT(before.first, before.second + 1);

  const auto moves = nn.balance(rng, 1);
  EXPECT_GT(moves, 0u);
  const auto after = spread();
  EXPECT_LE(after.first, after.second + 1);
  nn.check_invariants();
}

TEST(NameNode, BalanceToleranceZeroStopsWithinOneReplica) {
  // 25 two-replica files on 8 nodes: 50 replicas cannot level to a spread of
  // 0, and at a spread of 1 a move only swaps which node is heavier, so
  // tolerance 0 has to stop at 1 instead of looping forever.
  auto nn = make_nn(8, 2);
  HdfsDefaultPlacement policy;
  Rng rng(17);
  for (int i = 0; i < 25; ++i)
    nn.create_file(std::string("f").append(std::to_string(i)), kDefaultChunkSize, policy, rng,
                   /*writer=*/0);

  EXPECT_GT(nn.balance(rng, 0), 0u);
  const auto counts = nn.node_chunk_counts();
  const auto [lo, hi] = std::minmax_element(counts.begin(), counts.end());
  EXPECT_EQ(*hi - *lo, 1u);
  nn.check_invariants();
}

TEST(NameNode, BalanceNoopOnEvenLayout) {
  auto nn = make_nn(4, 2);
  RoundRobinPlacement policy;
  Rng rng(19);
  nn.create_file("a", 8 * kDefaultChunkSize, policy, rng);
  EXPECT_EQ(nn.balance(rng, 1), 0u);
}

TEST(NameNode, MultipleFilesGetDenseChunkIds) {
  auto nn = make_nn();
  RandomPlacement policy;
  Rng rng(23);
  const FileId a = nn.create_file("a", 2 * kDefaultChunkSize, policy, rng);
  const FileId b = nn.create_file("b", 2 * kDefaultChunkSize, policy, rng);
  EXPECT_EQ(nn.file(a).chunks, (std::vector<ChunkId>{0, 1}));
  EXPECT_EQ(nn.file(b).chunks, (std::vector<ChunkId>{2, 3}));
  EXPECT_EQ(nn.chunk_count(), 4u);
  EXPECT_EQ(nn.file_count(), 2u);
}

/// Hands out scripted placements in order (the last one repeats), so a test
/// can make the k-th chunk of a file break the PlacementPolicy contract.
class ScriptedPlacement final : public PlacementPolicy {
 public:
  explicit ScriptedPlacement(std::vector<ReplicaList> script) : script_(std::move(script)) {}
  ReplicaList place(const Topology&, NodeId, std::uint32_t, Rng&) override {
    return script_[std::min(next_++, script_.size() - 1)];
  }
  std::string name() const override { return "scripted"; }

 private:
  std::vector<ReplicaList> script_;
  std::size_t next_ = 0;
};

/// Everything a rejected create_file must leave untouched.
struct NamespaceState {
  std::uint32_t files = 0;
  std::uint32_t chunks = 0;
  std::vector<std::vector<ChunkId>> inventories;

  explicit NamespaceState(const NameNode& nn)
      : files(nn.file_count()), chunks(nn.chunk_count()) {
    for (NodeId n = 0; n < nn.node_count(); ++n) inventories.push_back(nn.chunks_on_node(n));
  }
  bool operator==(const NamespaceState&) const = default;
};

/// Writes a two-chunk file, then a file of `chunks` chunks whose last
/// placement is `bad`: the write must throw and change nothing, and the next
/// good write must get the next dense ids.
void expect_rejected_without_trace(const ReplicaList& bad, std::uint32_t chunks) {
  auto nn = make_nn(8, 3);
  RandomPlacement random;
  Rng rng(29);
  nn.create_file("base", 2 * kDefaultChunkSize, random, rng);
  const NamespaceState before(nn);

  std::vector<ReplicaList> script(chunks - 1, ReplicaList{4, 5, 6});
  script.push_back(bad);
  ScriptedPlacement policy(script);
  EXPECT_THROW(nn.create_file("bad", chunks * kDefaultChunkSize, policy, rng),
               std::logic_error);
  EXPECT_TRUE(NamespaceState(nn) == before) << "chunks " << chunks;
  EXPECT_NO_THROW(nn.check_invariants());

  const FileId next = nn.create_file("next", kDefaultChunkSize, random, rng);
  EXPECT_EQ(next, 1u);
  EXPECT_EQ(nn.file(next).chunks, (std::vector<ChunkId>{2}));
  EXPECT_NO_THROW(nn.check_invariants());
}

TEST(NameNode, RejectsWrongReplicaCountWithoutTrace) {
  for (std::uint32_t chunks : {1u, 3u}) expect_rejected_without_trace({1, 2}, chunks);
}

TEST(NameNode, RejectsOutOfRangeReplicaWithoutTrace) {
  for (std::uint32_t chunks : {1u, 3u}) expect_rejected_without_trace({1, 2, 8}, chunks);
}

TEST(NameNode, RejectsDuplicateReplicaWithoutTrace) {
  for (std::uint32_t chunks : {1u, 3u}) expect_rejected_without_trace({1, 2, 1}, chunks);
}

}  // namespace
}  // namespace opass::dfs
