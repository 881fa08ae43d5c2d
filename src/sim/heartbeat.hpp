// HDFS-style failure detection and recovery.
//
// DataNodes heartbeat the NameNode host every few seconds; when a node
// misses enough consecutive beats (because it crashed), the NameNode
// declares it dead and recovers it — closing the loop between the runtime
// failure model (Cluster::fail_node) and the metadata layer. Heartbeats are
// real simulated messages, so a congested NameNode link delays detection
// exactly as it would in production.
//
// Detection window. A node is declared dead at the first miss check where
// `now - last_beat > interval * miss_threshold + interval`; the extra
// interval absorbs wire latency of the last beat in flight. With the
// defaults (3 s interval, 3 misses) a node that crashes at time t is
// declared dead at the first check after t + 12 s — crashing *exactly on* a
// beat boundary still sends that boundary's beat, so the window is measured
// from the last beat that actually left the node.
//
// Recovery. By default a declared-dead node is handed to
// NameNode::decommission_node (instant, metadata-only re-replication). A
// recovery handler installed via set_recovery_handler replaces that default
// — sim::FaultInjector uses this to re-replicate with real simulated
// traffic instead.
//
// Thread-safety: like the rest of the simulator, this class is
// single-threaded — all state is confined to the simulation thread driving
// FlowSimulator::run(). Do not call any member from another thread while
// run() is live.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "dfs/namenode.hpp"
#include "sim/cluster.hpp"

namespace opass::sim {

/// Heartbeat cadence and detection thresholds.
struct HeartbeatParams {
  Seconds interval = 3.0;            ///< beat period (HDFS default: 3 s)
  std::uint32_t miss_threshold = 3;  ///< consecutive misses before declaring dead
  Bytes heartbeat_bytes = 128;       ///< wire size of one beat
};

/// Periodic heartbeat + miss detection + automatic re-replication.
class HeartbeatMonitor {
 public:
  using Params = HeartbeatParams;

  /// Called when a node is declared dead: (node, declaration time). Runs
  /// inside the simulation event loop, so it may schedule traffic and mutate
  /// cluster/NameNode state, but must not call HeartbeatMonitor::start.
  using RecoveryHandler = std::function<void(dfs::NodeId, Seconds)>;

  /// `namenode_host` is the node the beats travel to (the metadata server).
  /// Preconditions: the host is in range, the params are positive, and the
  /// NameNode and cluster agree on the node count.
  HeartbeatMonitor(Cluster& cluster, dfs::NameNode& nn, dfs::NodeId namenode_host, Rng& rng,
                   HeartbeatParams params = {});

  /// Schedule heartbeats and miss checks from now until `horizon` (virtual
  /// time). The simulation still quiesces at the horizon, so run() keeps
  /// its run-to-idle semantics. Precondition: `horizon` lies in the future.
  /// Call at most once per monitor.
  void start(Seconds horizon);

  /// Track a node added to the cluster after start() (churn join): it begins
  /// heartbeating at the current virtual time. Preconditions: start() was
  /// called, `node` is the id just returned by Cluster::add_node, and the
  /// monitor is not yet tracking it (ids are dense).
  void watch_node(dfs::NodeId node, Seconds horizon);

  /// Replace the default recovery action (NameNode::decommission_node) with
  /// `handler`. Postcondition: on every future declaration the handler runs
  /// instead of the default; detection bookkeeping (declared_dead,
  /// detection_time, recoveries) is unchanged. Pass nullptr to restore the
  /// default.
  void set_recovery_handler(RecoveryHandler handler) { recovery_ = std::move(handler); }

  /// True once the monitor declared the node dead and triggered recovery.
  bool declared_dead(dfs::NodeId node) const;

  /// Virtual time the node was declared dead, or a negative value if alive.
  Seconds detection_time(dfs::NodeId node) const;

  /// Number of nodes declared dead and recovered so far.
  std::uint32_t recoveries() const { return recoveries_; }

 private:
  void schedule_beat(dfs::NodeId node, Seconds when, Seconds horizon);
  void schedule_check(Seconds when, Seconds horizon);

  Cluster& cluster_;
  dfs::NameNode& nn_;
  dfs::NodeId namenode_host_;
  Rng& rng_;
  HeartbeatParams params_;
  RecoveryHandler recovery_;          // empty = default decommission_node
  std::vector<Seconds> last_beat_;    // one entry per *watched* node
  std::vector<Seconds> declared_at_;  // < 0 while alive
  std::uint32_t recoveries_ = 0;
};

}  // namespace opass::sim
