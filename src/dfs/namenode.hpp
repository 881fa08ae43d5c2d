// NameNode: the metadata service of the HDFS-model file system.
//
// Tracks files, chunks, replica locations and per-node inventories; supports
// the operations the paper's scenarios need: writing datasets (chunking +
// placement), the layout query Opass consumes (equivalent to HDFS
// getFileBlockLocations), node addition/decommissioning (the paper's stated
// cause of unbalanced layouts) and an HDFS-style balancer.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "dfs/placement.hpp"
#include "dfs/topology.hpp"
#include "dfs/types.hpp"

namespace opass::dfs {

/// Metadata service. Not thread-safe; experiments drive it single-threaded.
class NameNode {
 public:
  /// Create a file system over `topo` with the given default replication and
  /// chunk size (HDFS defaults: r = 3, 64 MB).
  NameNode(Topology topo, std::uint32_t replication = 3, Bytes chunk_size = kDefaultChunkSize);

  // --- write path ---

  /// Create a file of `size` bytes: splits into ceil(size/chunk_size) chunks
  /// (last chunk possibly short) and places each via `policy`. `name` is a
  /// label (FileInfo::name); files are addressed by FileId. Every placement
  /// is checked (count, range, distinctness) before any of the file's chunks
  /// is registered, so a rejected placement throws with the namespace
  /// unchanged.
  FileId create_file(const std::string& name, Bytes size, PlacementPolicy& policy, Rng& rng,
                     NodeId writer = kInvalidNode);

  // --- metadata queries (what Opass consumes) ---

  const Topology& topology() const { return topo_; }
  std::uint32_t node_count() const { return topo_.node_count(); }
  std::uint32_t replication() const { return replication_; }
  Bytes chunk_size() const { return chunk_size_; }

  std::uint32_t file_count() const { return static_cast<std::uint32_t>(files_.size()); }
  std::uint32_t chunk_count() const { return static_cast<std::uint32_t>(chunks_.size()); }

  const FileInfo& file(FileId id) const;
  const ChunkInfo& chunk(ChunkId id) const;

  /// Replica locations of a chunk (the layout query).
  const ReplicaList& locations(ChunkId id) const { return chunk(id).replicas; }

  /// All chunk ids with a replica on `node`.
  const std::vector<ChunkId>& chunks_on_node(NodeId node) const;

  /// Replica count held by each node (index = NodeId).
  std::vector<std::uint32_t> node_chunk_counts() const;

  /// Bytes of replicas held by each node.
  std::vector<Bytes> node_bytes() const;

  // --- cluster membership / maintenance ---

  /// Add an empty DataNode to the cluster on `rack`, one the topology already
  /// has; returns its id. Newly added nodes hold no data until writes or
  /// balancing move chunks there — the paper's example of how layouts become
  /// unbalanced.
  NodeId add_node(RackId rack = 0);

  /// Decommission a node: every replica it held is re-created on a random
  /// alive node not already holding that chunk. The node keeps its id but
  /// holds no data afterwards and is excluded from future placement only if
  /// the caller's policy respects `is_decommissioned`.
  void decommission_node(NodeId node, Rng& rng);

  bool is_decommissioned(NodeId node) const;

  /// Crash-style detach: mark `node` decommissioned and drop every replica it
  /// held *without* re-creating them anywhere. Returns the affected chunk
  /// ids in ascending order — the work list a recovery driver (e.g.
  /// sim::FaultInjector) re-replicates with real traffic, in exactly that
  /// order so recovery stays deterministic. Unlike decommission_node, the
  /// namespace is under-replicated until the driver finishes.
  std::vector<ChunkId> detach_node(NodeId node);

  /// Mark a node decommissioned without touching its replicas (graceful
  /// drain: the node keeps serving while a driver copies its chunks away
  /// one by one via register/unregister_replica).
  void mark_decommissioned(NodeId node);

  /// Record a new replica of `chunk` on `node` (the metadata half of a
  /// finished re-replication copy). The chunk must not already live there.
  void register_replica(ChunkId chunk, NodeId node);

  /// Drop the replica of `chunk` on `node`. It must exist.
  void unregister_replica(ChunkId chunk, NodeId node);

  /// HDFS-style balancer: repeatedly move one replica from the node with the
  /// most replicas to the node with the fewest (that lacks the chunk) until
  /// the spread (max - min replica count) is <= `tolerance` or no legal move
  /// exists. A tolerance of 0 means 1 ("within one replica"): at a spread of
  /// exactly 1 the replicas do not divide evenly over the nodes, so no move
  /// can shrink it. Returns the number of replicas moved.
  std::uint32_t balance(Rng& rng, std::uint32_t tolerance = 1);

  /// Validation: every chunk has `replication` distinct alive replicas and
  /// the per-node index is consistent. Throws std::logic_error on violation.
  void check_invariants() const;

 private:
  void add_replica(ChunkId chunk, NodeId node);
  void remove_replica(ChunkId chunk, NodeId node);

  Topology topo_;
  std::uint32_t replication_;
  Bytes chunk_size_;
  std::vector<FileInfo> files_;
  std::vector<ChunkInfo> chunks_;
  std::vector<std::vector<ChunkId>> node_chunks_;  // per-node inventory
  std::vector<std::uint32_t> staged_per_node_;     // create_file scratch; zero between calls
  std::vector<char> decommissioned_;
};

}  // namespace opass::dfs
