#include "dfs/namenode.hpp"

#include <algorithm>

#include "common/require.hpp"

namespace opass::dfs {

namespace {

/// Throws std::logic_error unless `replicas` holds `replication` distinct
/// nodes below `node_count` (the PlacementPolicy postcondition).
void check_placement(const ReplicaList& replicas, std::uint32_t replication,
                     std::uint32_t node_count) {
  OPASS_CHECK(replicas.size() == replication, "policy returned wrong replica count");
  for (auto it = replicas.begin(); it != replicas.end(); ++it)
    OPASS_CHECK(std::find(replicas.begin(), it, *it) == it,
                "policy returned duplicate replicas");
  for (NodeId n : replicas) OPASS_CHECK(n < node_count, "policy returned node out of range");
}

/// Make room for `n` elements in one allocation, at least doubling the
/// capacity as push_back would: a table sized once for a large file, and
/// still amortized O(1) per element over many small ones.
template <typename T>
void reserve_total(std::vector<T>& v, std::size_t n) {
  if (n > v.capacity()) v.reserve(std::max(n, 2 * v.capacity()));
}

}  // namespace

NameNode::NameNode(Topology topo, std::uint32_t replication, Bytes chunk_size)
    : topo_(std::move(topo)),
      replication_(replication),
      chunk_size_(chunk_size),
      node_chunks_(topo_.node_count()),
      staged_per_node_(topo_.node_count(), 0),
      decommissioned_(topo_.node_count(), 0) {
  OPASS_REQUIRE(replication_ > 0, "replication factor must be positive");
  OPASS_REQUIRE(replication_ <= topo_.node_count(),
                "replication factor exceeds cluster size");
  OPASS_REQUIRE(chunk_size_ > 0, "chunk size must be positive");
}

FileId NameNode::create_file(const std::string& name, Bytes size, PlacementPolicy& policy,
                             Rng& rng, NodeId writer) {
  OPASS_REQUIRE(size > 0, "cannot create an empty file");
  const auto fid = static_cast<FileId>(files_.size());
  FileInfo fi;
  fi.id = fid;
  fi.name = name;
  fi.size = size;

  // Draw and check every placement first, staged past the committed end of
  // chunks_; no inventory or file entry changes until all of them pass, and a
  // rejected placement (or a throwing policy) drops the staged tail.
  const std::size_t first = chunks_.size();
  reserve_total(chunks_, first + static_cast<std::size_t>(size / chunk_size_) +
                             (size % chunk_size_ != 0 ? 1 : 0));
  try {
    Bytes remaining = size;
    for (std::uint32_t index = 0; remaining > 0; ++index) {
      ChunkInfo ci;
      ci.id = static_cast<ChunkId>(chunks_.size());
      ci.file = fid;
      ci.index_in_file = index;
      ci.size = std::min(remaining, chunk_size_);
      ci.replicas = policy.place(topo_, writer, replication_, rng);
      check_placement(ci.replicas, replication_, topo_.node_count());
      remaining -= ci.size;
      chunks_.push_back(std::move(ci));
    }
  } catch (...) {
    chunks_.resize(first);
    throw;
  }

  // Size each touched inventory once for all of its new replicas, counting
  // them in a member scratch that ends the call all zero again.
  for (std::size_t i = first; i < chunks_.size(); ++i)
    for (NodeId n : chunks_[i].replicas) ++staged_per_node_[n];
  for (std::size_t i = first; i < chunks_.size(); ++i)
    for (NodeId n : chunks_[i].replicas) {
      reserve_total(node_chunks_[n], node_chunks_[n].size() + staged_per_node_[n]);
      staged_per_node_[n] = 0;
    }

  fi.chunks.reserve(chunks_.size() - first);
  for (std::size_t i = first; i < chunks_.size(); ++i) {
    const ChunkInfo& ci = chunks_[i];
    for (NodeId n : ci.replicas) node_chunks_[n].push_back(ci.id);
    fi.chunks.push_back(ci.id);
  }
  files_.push_back(std::move(fi));
  return fid;
}

const FileInfo& NameNode::file(FileId id) const {
  OPASS_REQUIRE(id < files_.size(), "file id out of range");
  return files_[id];
}

const ChunkInfo& NameNode::chunk(ChunkId id) const {
  OPASS_REQUIRE(id < chunks_.size(), "chunk id out of range");
  return chunks_[id];
}

const std::vector<ChunkId>& NameNode::chunks_on_node(NodeId node) const {
  OPASS_REQUIRE(node < node_chunks_.size(), "node out of range");
  return node_chunks_[node];
}

std::vector<std::uint32_t> NameNode::node_chunk_counts() const {
  std::vector<std::uint32_t> counts(topo_.node_count(), 0);
  for (NodeId n = 0; n < topo_.node_count(); ++n)
    counts[n] = static_cast<std::uint32_t>(node_chunks_[n].size());
  return counts;
}

std::vector<Bytes> NameNode::node_bytes() const {
  std::vector<Bytes> bytes(topo_.node_count(), 0);
  for (NodeId n = 0; n < topo_.node_count(); ++n)
    for (ChunkId c : node_chunks_[n]) bytes[n] += chunks_[c].size;
  return bytes;
}

NodeId NameNode::add_node(RackId rack) {
  const NodeId id = topo_.add_node(rack);
  node_chunks_.emplace_back();
  staged_per_node_.push_back(0);
  decommissioned_.push_back(0);
  return id;
}

void NameNode::decommission_node(NodeId node, Rng& rng) {
  OPASS_REQUIRE(node < topo_.node_count(), "node out of range");
  OPASS_REQUIRE(!decommissioned_[node], "node already decommissioned");
  decommissioned_[node] = 1;

  // Collect alive nodes once.
  std::vector<NodeId> alive;
  for (NodeId n = 0; n < topo_.node_count(); ++n)
    if (!decommissioned_[n]) alive.push_back(n);
  OPASS_REQUIRE(alive.size() >= replication_,
                "not enough alive nodes to maintain replication");

  const std::vector<ChunkId> to_move = node_chunks_[node];  // copy: we mutate the index
  for (ChunkId c : to_move) {
    remove_replica(c, node);
    // Re-replicate on a random alive node that lacks the chunk.
    std::vector<NodeId> candidates;
    for (NodeId n : alive)
      if (!chunks_[c].has_replica_on(n)) candidates.push_back(n);
    OPASS_CHECK(!candidates.empty(), "no candidate node for re-replication");
    add_replica(c, candidates[rng.uniform(candidates.size())]);
  }
}

std::vector<ChunkId> NameNode::detach_node(NodeId node) {
  OPASS_REQUIRE(node < topo_.node_count(), "node out of range");
  OPASS_REQUIRE(!decommissioned_[node], "node already decommissioned");
  decommissioned_[node] = 1;
  std::vector<ChunkId> affected = node_chunks_[node];  // copy: we mutate the index
  std::sort(affected.begin(), affected.end());
  for (ChunkId c : affected) remove_replica(c, node);
  return affected;
}

void NameNode::mark_decommissioned(NodeId node) {
  OPASS_REQUIRE(node < topo_.node_count(), "node out of range");
  OPASS_REQUIRE(!decommissioned_[node], "node already decommissioned");
  decommissioned_[node] = 1;
}

void NameNode::register_replica(ChunkId chunk, NodeId node) {
  OPASS_REQUIRE(chunk < chunks_.size(), "chunk id out of range");
  OPASS_REQUIRE(node < topo_.node_count(), "node out of range");
  OPASS_REQUIRE(!chunks_[chunk].has_replica_on(node),
                "chunk already has a replica on this node");
  add_replica(chunk, node);
}

void NameNode::unregister_replica(ChunkId chunk, NodeId node) {
  OPASS_REQUIRE(chunk < chunks_.size(), "chunk id out of range");
  OPASS_REQUIRE(node < topo_.node_count(), "node out of range");
  remove_replica(chunk, node);
}

bool NameNode::is_decommissioned(NodeId node) const {
  OPASS_REQUIRE(node < decommissioned_.size(), "node out of range");
  return decommissioned_[node] != 0;
}

std::uint32_t NameNode::balance(Rng& rng, std::uint32_t tolerance) {
  // A spread of exactly 1 cannot shrink: a move only swaps which node is
  // heavier. So 0 means 1, or the loop would never stop.
  const std::size_t spread = std::max<std::uint32_t>(tolerance, 1);
  std::uint32_t moves = 0;
  for (;;) {
    // Find most- and least-loaded alive nodes by replica count.
    NodeId hi = kInvalidNode, lo = kInvalidNode;
    for (NodeId n = 0; n < topo_.node_count(); ++n) {
      if (decommissioned_[n]) continue;
      if (hi == kInvalidNode || node_chunks_[n].size() > node_chunks_[hi].size()) hi = n;
      if (lo == kInvalidNode || node_chunks_[n].size() < node_chunks_[lo].size()) lo = n;
    }
    if (hi == kInvalidNode || lo == kInvalidNode) break;
    if (node_chunks_[hi].size() <= node_chunks_[lo].size() + spread) break;

    // Move one replica hi -> lo; pick a random movable chunk.
    std::vector<ChunkId> movable;
    for (ChunkId c : node_chunks_[hi])
      if (!chunks_[c].has_replica_on(lo)) movable.push_back(c);
    if (movable.empty()) break;  // everything on hi already replicated on lo
    const ChunkId c = movable[rng.uniform(movable.size())];
    remove_replica(c, hi);
    add_replica(c, lo);
    ++moves;
  }
  return moves;
}

void NameNode::check_invariants() const {
  for (const auto& c : chunks_) {
    OPASS_CHECK(c.replicas.size() == replication_, "chunk replica count drifted");
    for (auto it = c.replicas.begin(); it != c.replicas.end(); ++it) {
      OPASS_CHECK(std::find(c.replicas.begin(), it, *it) == it, "duplicate replica nodes");
      const auto& inv = node_chunks_.at(*it);
      OPASS_CHECK(std::find(inv.begin(), inv.end(), c.id) != inv.end(),
                  "node inventory missing a replica");
    }
  }
  std::size_t indexed = 0;
  for (const auto& inv : node_chunks_) indexed += inv.size();
  OPASS_CHECK(indexed == chunks_.size() * replication_, "inventory size mismatch");
}

void NameNode::add_replica(ChunkId chunk, NodeId node) {
  chunks_[chunk].replicas.push_back(node);
  node_chunks_[node].push_back(chunk);
}

void NameNode::remove_replica(ChunkId chunk, NodeId node) {
  auto& reps = chunks_[chunk].replicas;
  auto it = std::find(reps.begin(), reps.end(), node);
  OPASS_CHECK(it != reps.end(), "removing a replica that does not exist");
  reps.erase(it);
  auto& inv = node_chunks_[node];
  auto it2 = std::find(inv.begin(), inv.end(), chunk);
  OPASS_CHECK(it2 != inv.end(), "node inventory missing replica being removed");
  inv.erase(it2);
}

}  // namespace opass::dfs
