#include "dfs/replica_choice.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace opass::dfs {
namespace {

ChunkInfo chunk_with_replicas(ReplicaList reps) {
  ChunkInfo c;
  c.size = kDefaultChunkSize;
  c.replicas = std::move(reps);
  return c;
}

TEST(ReplicaChoice, LocalPreferenceAlwaysWins) {
  const auto chunk = chunk_with_replicas({3, 7, 9});
  Rng rng(1);
  for (auto policy :
       {ReplicaChoice::kRandom, ReplicaChoice::kFirst, ReplicaChoice::kLeastLoaded}) {
    EXPECT_EQ(choose_serving_node(chunk, 7, {}, policy, rng), 7u);
  }
}

TEST(ReplicaChoice, RandomPicksOnlyReplicas) {
  const auto chunk = chunk_with_replicas({2, 4, 6});
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const NodeId n = choose_serving_node(chunk, 0, {}, ReplicaChoice::kRandom, rng);
    EXPECT_TRUE(n == 2 || n == 4 || n == 6);
  }
}

TEST(ReplicaChoice, RandomIsRoughlyUniform) {
  const auto chunk = chunk_with_replicas({2, 4, 6});
  Rng rng(5);
  int hits[3] = {0, 0, 0};
  const int trials = 30000;
  for (int i = 0; i < trials; ++i) {
    switch (choose_serving_node(chunk, 0, {}, ReplicaChoice::kRandom, rng)) {
      case 2: ++hits[0]; break;
      case 4: ++hits[1]; break;
      default: ++hits[2];
    }
  }
  for (int h : hits) EXPECT_NEAR(h, trials / 3, trials * 0.02);
}

TEST(ReplicaChoice, FirstIsDeterministic) {
  const auto chunk = chunk_with_replicas({5, 1, 3});
  Rng rng(7);
  for (int i = 0; i < 10; ++i)
    EXPECT_EQ(choose_serving_node(chunk, 0, {}, ReplicaChoice::kFirst, rng), 5u);
}

TEST(ReplicaChoice, LeastLoadedPicksMinimum) {
  const auto chunk = chunk_with_replicas({1, 2, 3});
  Rng rng(9);
  const std::vector<std::uint32_t> load{0, 9, 2, 5};
  EXPECT_EQ(choose_serving_node(chunk, 0, load, ReplicaChoice::kLeastLoaded, rng), 2u);
}

TEST(ReplicaChoice, LeastLoadedTreatsMissingLoadAsZero) {
  const auto chunk = chunk_with_replicas({1, 6});
  Rng rng(9);
  const std::vector<std::uint32_t> load{0, 4};  // node 6 beyond the vector
  EXPECT_EQ(choose_serving_node(chunk, 0, load, ReplicaChoice::kLeastLoaded, rng), 6u);
}

TEST(ReplicaChoice, NoReplicasThrows) {
  const ChunkInfo chunk;
  Rng rng(11);
  EXPECT_THROW(choose_serving_node(chunk, 0, {}, ReplicaChoice::kRandom, rng),
               std::invalid_argument);
}

/// Reference choice for the liveness filter: copy the chunk's replica list,
/// erase the failed nodes, then apply the policy to what is left.
NodeId copy_and_erase_choice(const ChunkInfo& chunk, NodeId reader,
                             const std::vector<std::uint32_t>& load, ReplicaChoice policy,
                             Rng& rng, const std::vector<char>& failed) {
  std::vector<NodeId> alive(chunk.replicas.begin(), chunk.replicas.end());
  std::erase_if(alive, [&failed](NodeId n) { return failed[n] != 0; });
  if (std::find(alive.begin(), alive.end(), reader) != alive.end()) return reader;
  switch (policy) {
    case ReplicaChoice::kRandom:
      return alive[rng.uniform(alive.size())];
    case ReplicaChoice::kFirst:
      return alive.front();
    case ReplicaChoice::kLeastLoaded: {
      NodeId best = alive.front();
      for (NodeId n : alive)
        if (load[n] < load[best]) best = n;
      return best;
    }
  }
  return kInvalidNode;
}

TEST(ReplicaChoice, LivenessFilterMatchesCopyAndEraseOracle) {
  const auto chunk = chunk_with_replicas({3, 7, 9});
  // Loads with a unique minimum on each replica, and a tie between 7 and 9.
  const std::vector<std::vector<std::uint32_t>> loads = {
      {0, 0, 0, 1, 0, 0, 0, 4, 0, 6}, {0, 0, 0, 5, 0, 0, 0, 2, 0, 3},
      {0, 0, 0, 5, 0, 0, 0, 7, 0, 1}, {0, 0, 0, 5, 0, 0, 0, 2, 0, 2}};
  for (unsigned mask = 0; mask < 7; ++mask) {  // mask 7 (all failed) is below
    std::vector<char> failed(10, 0);
    for (unsigned i = 0; i < 3; ++i)
      if (mask & (1u << i)) failed[chunk.replicas[i]] = 1;
    for (auto policy :
         {ReplicaChoice::kRandom, ReplicaChoice::kFirst, ReplicaChoice::kLeastLoaded}) {
      for (const auto& load : loads) {
        for (NodeId reader : {0u, 3u, 7u, 9u}) {
          for (std::uint64_t seed = 0; seed < 8; ++seed) {
            Rng ours(seed), oracle(seed);
            EXPECT_EQ(choose_serving_node(chunk, reader, load, policy, ours, failed),
                      copy_and_erase_choice(chunk, reader, load, policy, oracle, failed))
                << "mask " << mask << " policy " << replica_choice_name(policy) << " reader "
                << reader << " seed " << seed;
            EXPECT_EQ(ours(), oracle()) << "rng stream moved differently, mask " << mask;
          }
        }
      }
    }
  }
}

TEST(ReplicaChoice, AllReplicasFailedThrows) {
  const auto chunk = chunk_with_replicas({3, 7, 9});
  std::vector<char> failed(10, 0);
  failed[3] = failed[7] = failed[9] = 1;
  Rng rng(13);
  for (auto policy :
       {ReplicaChoice::kRandom, ReplicaChoice::kFirst, ReplicaChoice::kLeastLoaded}) {
    for (NodeId reader : {0u, 7u}) {
      try {
        choose_serving_node(chunk, reader, {}, policy, rng, failed);
        ADD_FAILURE() << "expected a throw for " << replica_choice_name(policy);
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("all replicas of a chunk are on failed nodes"),
                  std::string::npos);
      }
    }
  }
}

TEST(ReplicaChoice, Names) {
  EXPECT_STREQ(replica_choice_name(ReplicaChoice::kRandom), "random");
  EXPECT_STREQ(replica_choice_name(ReplicaChoice::kFirst), "first");
  EXPECT_STREQ(replica_choice_name(ReplicaChoice::kLeastLoaded), "least-loaded");
}

}  // namespace
}  // namespace opass::dfs
