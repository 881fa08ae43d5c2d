// Core identifier and metadata types for the HDFS-model distributed file
// system. The model captures exactly what Opass consumes from a real HDFS:
// files split into chunk files (blocks) of at most the configured chunk size,
// each chunk replicated on r distinct DataNodes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/inline_vector.hpp"
#include "common/units.hpp"

namespace opass::dfs {

/// DataNode index within the cluster, dense in [0, node_count).
using NodeId = std::uint32_t;

/// Globally unique chunk (block) index, dense in creation order.
using ChunkId = std::uint32_t;

/// File index, dense in creation order.
using FileId = std::uint32_t;

inline constexpr NodeId kInvalidNode = UINT32_MAX;

/// A chunk's replica locations, in placement order. Four inline slots cover
/// r <= 3 plus the extra replica a drain holds between registering the copy
/// and dropping the original; larger r spills to the heap.
using ReplicaList = InlineVector<NodeId, 4>;

/// Metadata of one chunk file (HDFS block).
struct ChunkInfo {
  ChunkId id = 0;
  FileId file = 0;
  std::uint32_t index_in_file = 0;  ///< chunk ordinal within its file
  Bytes size = 0;
  ReplicaList replicas;  ///< distinct DataNodes holding a copy

  bool has_replica_on(NodeId node) const {
    for (NodeId r : replicas)
      if (r == node) return true;
    return false;
  }
};

/// Metadata of one logical file.
struct FileInfo {
  FileId id = 0;
  std::string name;  ///< label for listings; files are addressed by FileId
  Bytes size = 0;
  std::vector<ChunkId> chunks;
};

}  // namespace opass::dfs
