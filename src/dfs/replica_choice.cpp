#include "dfs/replica_choice.hpp"

#include "common/require.hpp"

namespace opass::dfs {

const char* replica_choice_name(ReplicaChoice c) {
  switch (c) {
    case ReplicaChoice::kRandom:
      return "random";
    case ReplicaChoice::kFirst:
      return "first";
    case ReplicaChoice::kLeastLoaded:
      return "least-loaded";
  }
  return "?";
}

NodeId choose_serving_node(const ChunkInfo& chunk, NodeId reader,
                           const std::vector<std::uint32_t>& node_load, ReplicaChoice policy,
                           Rng& rng, const std::vector<char>& failed) {
  const ReplicaList& replicas = chunk.replicas;
  OPASS_REQUIRE(!replicas.empty(), "chunk has no replicas");
  const auto alive = [&failed](NodeId n) { return n >= failed.size() || failed[n] == 0; };
  std::uint32_t live = 0;
  for (NodeId n : replicas) {
    if (!alive(n)) continue;
    if (n == reader) return reader;
    ++live;
  }
  OPASS_REQUIRE(live > 0, "all replicas of a chunk are on failed nodes");

  // The k-th live replica: index k of the list with the failed nodes erased.
  const auto live_at = [&](std::uint64_t k) {
    for (NodeId n : replicas)
      if (alive(n) && k-- == 0) return n;
    return kInvalidNode;
  };
  switch (policy) {
    case ReplicaChoice::kRandom:
      return live_at(rng.uniform(live));
    case ReplicaChoice::kFirst:
      return live_at(0);
    case ReplicaChoice::kLeastLoaded: {
      const auto load = [&node_load](NodeId n) {
        return n < node_load.size() ? node_load[n] : 0u;
      };
      NodeId best = kInvalidNode;
      for (NodeId n : replicas)
        if (alive(n) && (best == kInvalidNode || load(n) < load(best))) best = n;
      return best;
    }
  }
  OPASS_CHECK(false, "unknown replica choice policy");
}

}  // namespace opass::dfs
