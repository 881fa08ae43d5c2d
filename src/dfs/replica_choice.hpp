// Read-path replica selection.
//
// HDFS's client read policy, as the paper describes it: "the client will
// attempt to read from a local disk. If the required data is not on a local
// disk, the client will read data from another node that is chosen at
// random." Local preference is always applied; the policy below chooses
// among remote replicas. kLeastLoaded is an ablation showing how much of the
// imbalance a smarter DFS-side choice could recover without Opass.
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "dfs/types.hpp"

namespace opass::dfs {

enum class ReplicaChoice {
  kRandom,       ///< uniform among replicas (HDFS / the paper's model)
  kFirst,        ///< deterministic first replica (worst-case hot-spotting)
  kLeastLoaded,  ///< replica on the node currently serving the fewest requests
};

const char* replica_choice_name(ReplicaChoice c);

/// Pick the node to serve a read of `chunk` issued from `reader`.
///
/// Only live replicas are candidates: `failed[n] != 0` marks node n failed,
/// and nodes past the end of `failed` are alive (empty = healthy cluster).
/// The choice equals the policy applied to the replica list with the failed
/// nodes erased, consuming the same rng draws. Applies local preference
/// first. `node_load[n]` is the number of in-flight requests on node n (only
/// consulted by kLeastLoaded; may be empty for other policies). Throws
/// std::invalid_argument when every replica sits on a failed node.
NodeId choose_serving_node(const ChunkInfo& chunk, NodeId reader,
                           const std::vector<std::uint32_t>& node_load, ReplicaChoice policy,
                           Rng& rng, const std::vector<char>& failed = {});

}  // namespace opass::dfs
