#include "dfs/placement.hpp"

#include <algorithm>

#include "common/require.hpp"

namespace opass::dfs {

namespace {

/// Draw a node uniformly from `candidates`, excluding any already in `chosen`.
/// Returns kInvalidNode when no candidate remains.
NodeId draw_excluding(const std::vector<NodeId>& candidates, const ReplicaList& chosen,
                      Rng& rng) {
  std::vector<NodeId> pool;
  pool.reserve(candidates.size());
  for (NodeId c : candidates)
    if (std::find(chosen.begin(), chosen.end(), c) == chosen.end()) pool.push_back(c);
  if (pool.empty()) return kInvalidNode;
  return pool[rng.uniform(pool.size())];
}

}  // namespace

ReplicaList RandomPlacement::place(const Topology& topo, NodeId /*writer*/,
                                   std::uint32_t replication, Rng& rng) {
  OPASS_REQUIRE(replication <= topo.node_count(),
                "replication factor exceeds cluster size");
  return rng.sample_without_replacement(topo.node_count(), replication);
}

ReplicaList HdfsDefaultPlacement::place(const Topology& topo, NodeId writer,
                                        std::uint32_t replication, Rng& rng) {
  OPASS_REQUIRE(replication <= topo.node_count(),
                "replication factor exceeds cluster size");
  ReplicaList chosen;
  chosen.reserve(replication);

  // Replica 1: the writer itself, or a random node for external clients.
  const NodeId first =
      writer != kInvalidNode ? writer : static_cast<NodeId>(rng.uniform(topo.node_count()));
  chosen.push_back(first);
  if (chosen.size() == replication) return chosen;

  // Replica 2: a node on a different rack when one exists.
  std::vector<NodeId> off_rack;
  for (NodeId n = 0; n < topo.node_count(); ++n)
    if (topo.rack_of(n) != topo.rack_of(first)) off_rack.push_back(n);
  NodeId second = draw_excluding(off_rack, chosen, rng);
  if (second == kInvalidNode) {
    // Single-rack cluster: fall back to any distinct node.
    std::vector<NodeId> all(topo.node_count());
    for (NodeId n = 0; n < topo.node_count(); ++n) all[n] = n;
    second = draw_excluding(all, chosen, rng);
  }
  OPASS_CHECK(second != kInvalidNode, "no node available for second replica");
  chosen.push_back(second);
  if (chosen.size() == replication) return chosen;

  // Replica 3: same rack as replica 2, different node; fall back to any node.
  NodeId third = draw_excluding(topo.nodes_on_rack(topo.rack_of(second)), chosen, rng);
  if (third == kInvalidNode) {
    std::vector<NodeId> all(topo.node_count());
    for (NodeId n = 0; n < topo.node_count(); ++n) all[n] = n;
    third = draw_excluding(all, chosen, rng);
  }
  OPASS_CHECK(third != kInvalidNode, "no node available for third replica");
  chosen.push_back(third);

  // Extras beyond 3: random distinct nodes.
  while (chosen.size() < replication) {
    std::vector<NodeId> all(topo.node_count());
    for (NodeId n = 0; n < topo.node_count(); ++n) all[n] = n;
    const NodeId extra = draw_excluding(all, chosen, rng);
    OPASS_CHECK(extra != kInvalidNode, "no node available for extra replica");
    chosen.push_back(extra);
  }
  return chosen;
}

ReplicaList RoundRobinPlacement::place(const Topology& topo, NodeId /*writer*/,
                                       std::uint32_t replication, Rng& /*rng*/) {
  OPASS_REQUIRE(replication <= topo.node_count(),
                "replication factor exceeds cluster size");
  ReplicaList chosen;
  chosen.reserve(replication);
  for (std::uint32_t i = 0; i < replication; ++i)
    chosen.push_back(static_cast<NodeId>((next_ + i) % topo.node_count()));
  ++next_;
  return chosen;
}

ReplicaList SpreadPlacement::place(const Topology& topo, NodeId /*writer*/,
                                   std::uint32_t replication, Rng& /*rng*/) {
  OPASS_REQUIRE(replication <= topo.node_count(),
                "replication factor exceeds cluster size");
  if (counts_.size() < topo.node_count()) counts_.resize(topo.node_count(), 0);

  // Select the `replication` least-loaded nodes, smallest id on ties:
  // deterministic, and exactly the maximal-spread rule of arXiv 1808.07545
  // when chunks arrive one at a time.
  std::vector<NodeId> order(topo.node_count());
  for (NodeId n = 0; n < topo.node_count(); ++n) order[n] = n;
  std::sort(order.begin(), order.end(), [this](NodeId a, NodeId b) {
    return counts_[a] != counts_[b] ? counts_[a] < counts_[b] : a < b;
  });
  ReplicaList chosen(order.begin(), order.begin() + replication);
  for (NodeId n : chosen) ++counts_[n];
  return chosen;
}

std::unique_ptr<PlacementPolicy> make_placement(PlacementKind kind) {
  switch (kind) {
    case PlacementKind::kRandom:
      return std::make_unique<RandomPlacement>();
    case PlacementKind::kHdfsDefault:
      return std::make_unique<HdfsDefaultPlacement>();
    case PlacementKind::kRoundRobin:
      return std::make_unique<RoundRobinPlacement>();
    case PlacementKind::kSpread:
      return std::make_unique<SpreadPlacement>();
  }
  OPASS_CHECK(false, "unknown placement kind");
}

const char* placement_kind_name(PlacementKind kind) {
  switch (kind) {
    case PlacementKind::kRandom:
      return "random";
    case PlacementKind::kHdfsDefault:
      return "hdfs-default";
    case PlacementKind::kRoundRobin:
      return "round-robin";
    case PlacementKind::kSpread:
      return "spread";
  }
  return "?";
}

}  // namespace opass::dfs
