// Replica placement policies.
//
// The paper's analysis assumes HDFS's effectively random distribution ("data
// are randomly distributed within HDFS"); kRandom reproduces that. The
// classic HDFS writer-local + rack-aware pipeline and a round-robin balancer
// policy are provided for ablations (bench/ablation_policies): Opass's gain
// shrinks as placement gets more even, exactly as Section IV-B discusses for
// full matchings. kSpread implements the service-rate-maximizing allocation
// of "On Distributed Storage Allocations of Large Files for Maximum Service
// Rate" (arXiv 1808.07545): spreading a file's chunks across the maximal
// number of storage nodes — here, always placing on the currently
// least-loaded nodes — maximizes the rate at which parallel readers can be
// served, and it keeps layouts even under churn (new nodes absorb new
// replicas first). The failure-model catalog in DESIGN.md §11 maps each
// policy to the churn scenario it supports.
//
// Thread-safety: policies are single-threaded — place() mutates internal
// policy state (RoundRobinPlacement::next_, SpreadPlacement::counts_) with
// no synchronization, matching the single simulation thread that drives
// every experiment.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "dfs/topology.hpp"
#include "dfs/types.hpp"

namespace opass::dfs {

/// Strategy interface: pick `replication` distinct DataNodes for a new chunk.
class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;

  /// Choose replica nodes. `writer` is the node issuing the write, or
  /// kInvalidNode for an external client.
  ///
  /// Preconditions: `replication` >= 1 and <= topo.node_count().
  /// Postconditions: returns exactly `replication` distinct node ids, each
  /// < topo.node_count(); callers validate via OPASS checks in the NameNode.
  /// Stateful policies (round-robin, spread) must tolerate `topo` growing
  /// between calls (churn joins add nodes mid-run).
  virtual ReplicaList place(const Topology& topo, NodeId writer, std::uint32_t replication,
                            Rng& rng) = 0;

  virtual std::string name() const = 0;
};

/// r distinct nodes drawn uniformly at random — the model the paper analyzes.
class RandomPlacement final : public PlacementPolicy {
 public:
  ReplicaList place(const Topology& topo, NodeId writer, std::uint32_t replication,
                    Rng& rng) override;
  std::string name() const override { return "random"; }
};

/// Classic HDFS default: replica 1 on the writer (or a random node for an
/// external client), replica 2 on a different rack, replica 3 on the same
/// rack as replica 2 but a different node; extras random. On a single-rack
/// topology the rack constraints degenerate to "distinct random nodes".
class HdfsDefaultPlacement final : public PlacementPolicy {
 public:
  ReplicaList place(const Topology& topo, NodeId writer, std::uint32_t replication,
                    Rng& rng) override;
  std::string name() const override { return "hdfs-default"; }
};

/// Perfectly even placement: replicas assigned round-robin over nodes. Gives
/// Opass a guaranteed full matching — the idealized upper bound.
class RoundRobinPlacement final : public PlacementPolicy {
 public:
  ReplicaList place(const Topology& topo, NodeId writer, std::uint32_t replication,
                    Rng& rng) override;
  std::string name() const override { return "round-robin"; }

 private:
  std::uint64_t next_ = 0;
};

/// Service-rate-maximizing spread allocation (arXiv 1808.07545): each chunk's
/// replicas go to the `replication` nodes currently holding the fewest
/// replicas placed by this policy (ties broken by smallest node id, so the
/// layout is a pure function of the placement sequence — no RNG draw).
/// Spreading over the maximal node set maximizes the aggregate service rate
/// parallel readers see; unlike round-robin, the policy tracks loads, so a
/// node joining mid-run (churn) absorbs the next writes until it catches up.
class SpreadPlacement final : public PlacementPolicy {
 public:
  ReplicaList place(const Topology& topo, NodeId writer, std::uint32_t replication,
                    Rng& rng) override;
  std::string name() const override { return "spread"; }

 private:
  std::vector<std::uint64_t> counts_;  // replicas this policy placed per node
};

/// Named policy selection for configs and CLI flags.
enum class PlacementKind { kRandom, kHdfsDefault, kRoundRobin, kSpread };

std::unique_ptr<PlacementPolicy> make_placement(PlacementKind kind);
const char* placement_kind_name(PlacementKind kind);

}  // namespace opass::dfs
