// Deterministic fault-injection and churn: scripted virtual-time events
// driven through heartbeat detection and traffic-modelled recovery.
//
// A FaultPlan is a list of timestamped events — node crash, slow-node
// (straggler) rate degradation and restoration, node join, graceful
// decommission, rebalance — loaded from a small JSON file (--fault-plan) or
// built in code. The FaultInjector arms the plan on a Cluster + NameNode +
// HeartbeatMonitor triple:
//
//   * crash      -> Cluster::fail_node; the heartbeat monitor detects the
//                   silence and hands the node to the injector, which
//                   re-replicates every chunk the node held as *real
//                   simulated copies* (source disk + NICs + destination
//                   disk) that compete with application reads for bandwidth;
//   * slow/restore -> Cluster::degrade_node / restore_node (active
//                   transfers re-level at the event time);
//   * join       -> NameNode::add_node + Cluster::add_node + heartbeat
//                   watch; new nodes absorb re-replication and rebalance
//                   traffic;
//   * decommission -> graceful drain: the node keeps serving while its
//                   chunks are copied away, then leaves (safe at r = 1,
//                   unlike a crash, which loses r = 1 chunks);
//   * rebalance  -> the HDFS balancer's move plan (most- to least-loaded,
//                   deterministic ties) executed as traffic.
//
// Determinism (DESIGN.md §11). Every recovery decision is a deterministic
// function of the metadata at the decision point: work lists are processed
// in ascending chunk id, copy sources are the smallest-id alive replica
// holder, copy targets the least-loaded alive node (ties by smallest id),
// and concurrent copies are bounded by a FIFO of plan order. No RNG is
// drawn, so a seeded run with a fault plan replays byte-identically.
//
// Observability: the injector stays metric-blind (DESIGN.md §8). It emits
// fault-lifecycle events to an opass::Probe (common/probe.hpp), naming an
// applied event by its index in the plan; obs::FaultEventLog renders them.
//
// Thread-safety: single-threaded, like the rest of the simulator — all
// members are confined to the simulation thread.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "common/probe.hpp"
#include "common/units.hpp"
#include "dfs/namenode.hpp"
#include "dfs/types.hpp"
#include "sim/cluster.hpp"
#include "sim/heartbeat.hpp"

namespace opass::sim {

/// Scripted event taxonomy (DESIGN.md §11 documents the full model).
enum class FaultKind {
  kCrash,         ///< fail-stop: node dies, its reads abort, heartbeats cease
  kSlow,          ///< straggler: disk + NIC capacities scaled by `factor`
  kRestore,       ///< undo kSlow: node back to full speed
  kJoin,          ///< churn: an empty node joins on `rack`
  kDecommission,  ///< graceful drain: copy chunks away, then leave
  kRebalance,     ///< run the balancer's move plan as real traffic
};

/// "crash" | "slow" | ... — stable names used by the JSON format.
const char* fault_kind_name(FaultKind kind);

/// One scripted event. Which fields are meaningful depends on `kind`:
/// node (crash/slow/restore/decommission), factor (slow), rack (join),
/// tolerance (rebalance).
struct FaultEvent {
  Seconds at = 0;
  FaultKind kind = FaultKind::kCrash;
  dfs::NodeId node = dfs::kInvalidNode;
  double factor = 1.0;
  dfs::RackId rack = 0;
  /// Rebalance stops once max - min replicas per node is at most this. 0
  /// and 1 both mean "within one replica": a spread of 1 cannot shrink.
  std::uint32_t tolerance = 1;
};

/// A full scripted scenario.
struct FaultPlan {
  /// Heartbeat/monitoring horizon: beats and miss checks run until here.
  Seconds horizon = 120.0;
  /// Re-replication / rebalance copy streams in flight at once (the HDFS
  /// dfs.namenode.replication.max-streams analogue).
  std::uint32_t max_concurrent_copies = 4;
  std::vector<FaultEvent> events;
};

/// Parse the JSON fault-plan format:
///
///   {"horizon": 120.0, "max_concurrent_copies": 4, "events": [
///     {"at": 3.0,  "kind": "crash", "node": 17},
///     {"at": 5.0,  "kind": "slow", "node": 4, "factor": 0.25},
///     {"at": 40.0, "kind": "restore", "node": 4},
///     {"at": 10.0, "kind": "join", "rack": 0},
///     {"at": 12.0, "kind": "rebalance", "tolerance": 1},
///     {"at": 20.0, "kind": "decommission", "node": 9}]}
///
/// Malformed input throws std::invalid_argument naming the offending field
/// ("fault plan event 1: missing field \"node\" ..."). Node ids are range-
/// checked against the cluster at FaultInjector::arm(), not here.
FaultPlan parse_fault_plan(const std::string& json_text);

/// Read `path` and parse_fault_plan its contents.
FaultPlan load_fault_plan(const std::string& path);

/// Counters accumulated over an armed plan.
struct FaultStats {
  std::uint32_t crashes = 0;
  std::uint32_t slowdowns = 0;
  std::uint32_t restores = 0;
  std::uint32_t joins = 0;
  std::uint32_t decommissions = 0;
  std::uint32_t rebalances = 0;
  std::uint32_t recoveries = 0;       ///< recovery drives completed
  std::uint32_t replicas_copied = 0;  ///< copies that landed
  Bytes rereplicated_bytes = 0;       ///< bytes those copies moved
  std::uint32_t lost_chunks = 0;      ///< crash left a chunk with no replica
  std::uint32_t aborted_copies = 0;   ///< copies dropped/retried (source died,
                                      ///< or metadata moved underneath them)
};

/// Membership/layout transitions the scheduler layer may react to
/// (exp::run_dynamic re-plans the Opass guideline on these).
enum class MembershipEvent {
  kNodeDead,          ///< detection: `node` was declared dead
  kNodeJoined,        ///< `node` joined the cluster
  kRecoveryComplete,  ///< crash re-replication for `node` finished
  kDrainComplete,     ///< graceful decommission of `node` finished
  kRebalanceComplete, ///< a rebalance drive finished (node = kInvalidNode)
};

/// Arms a FaultPlan: schedules the scripted events and drives deterministic,
/// traffic-modelled recovery. Construct after the monitor, then call arm()
/// exactly once, before Cluster::run(). The injector installs itself as the
/// monitor's recovery handler.
class FaultInjector {
 public:
  using MembershipCallback =
      std::function<void(Seconds, MembershipEvent, dfs::NodeId)>;

  /// Precondition: `monitor` not started yet or started with the same
  /// horizon.
  FaultInjector(Cluster& cluster, dfs::NameNode& nn, HeartbeatMonitor& monitor,
                FaultPlan plan);

  /// Schedule every event and install the recovery handler. Call once.
  /// Throws std::invalid_argument, naming the events, if an event in firing
  /// order names a node that does not exist yet (joins add nodes), crashes
  /// or decommissions one an earlier event already crashed or decommissioned,
  /// or slows or restores one an earlier event crashed; or if a join names a
  /// rack the NameNode's topology does not have.
  void arm();

  /// Attach (or with nullptr, detach) the probe for kFault, kDetection,
  /// kCopy and kRecovered events. Borrowed; must outlive the injector.
  void set_probe(Probe* probe) { probe_ = probe; }

  /// Register a membership-change callback (borrowed semantics: the callee
  /// must stay valid for the simulation). Runs inside the event loop.
  void set_membership_callback(MembershipCallback cb) { membership_ = std::move(cb); }

  const FaultStats& stats() const { return stats_; }
  const FaultPlan& plan() const { return plan_; }

 private:
  /// One queued copy of `chunk` from `src` to `dst`. When `remove_from` !=
  /// kInvalidNode the copy is a *move* (drain/rebalance): the source replica
  /// is unregistered after the copy lands.
  struct Copy {
    dfs::ChunkId chunk = 0;
    dfs::NodeId src = dfs::kInvalidNode;
    dfs::NodeId dst = dfs::kInvalidNode;
    dfs::NodeId remove_from = dfs::kInvalidNode;
    std::uint32_t drive = 0;  ///< index into drives_
  };

  /// One recovery operation (crash recovery, drain, rebalance) whose
  /// completion is announced when its last pending copy resolves.
  struct Drive {
    dfs::NodeId node = dfs::kInvalidNode;  // kInvalidNode for rebalance
    MembershipEvent done_event = MembershipEvent::kRecoveryComplete;
    std::uint32_t pending = 0;
  };

  void apply(Seconds now, std::size_t index);
  void emit(Seconds at, ProbeKind kind, std::uint64_t id, std::uint32_t count = 0,
            Bytes bytes = 0) const {
    if (probe_ != nullptr) probe_->on_event({at, kind, id, count, bytes});
  }
  void on_declared(dfs::NodeId node, Seconds now);
  void start_drain(Seconds now, dfs::NodeId node);
  void start_rebalance(Seconds now, std::uint32_t tolerance);
  /// The copy rule (DESIGN.md §11 rule 4), checked as a copy starts and as
  /// it lands: go ahead, get a new target (a needed recovery copy or drain
  /// move whose target no longer fits) or drop.
  enum class Verdict { kGo, kRetarget, kDrop };
  Verdict check(const Copy& copy) const;
  /// Open a drive holding one reference, released once its copies are queued.
  std::uint32_t open_drive(dfs::NodeId node, MembershipEvent done_event);
  void enqueue(Copy copy);
  void pump(Seconds now);
  void finish_copy(Seconds now, const Copy& copy, bool landed);
  /// Release one of drive `index`'s references (open_drive's or a copy's);
  /// the last one announces the drive's completion.
  void settle(Seconds now, std::uint32_t index);
  dfs::NodeId pick_target(dfs::ChunkId chunk) const;
  dfs::NodeId pick_source(dfs::ChunkId chunk) const;
  bool node_usable(dfs::NodeId node) const;

  Cluster& cluster_;
  dfs::NameNode& nn_;
  HeartbeatMonitor& monitor_;
  FaultPlan plan_;
  Probe* probe_ = nullptr;
  MembershipCallback membership_;
  FaultStats stats_;
  std::deque<Copy> queue_;
  std::vector<Drive> drives_;
  std::uint32_t active_copies_ = 0;
  /// Copies queued or in flight to each node (index = NodeId; empty until a
  /// drive opens): the load pick_target adds to the node's replica count.
  std::vector<std::uint32_t> inbound_;
  bool armed_ = false;
};

}  // namespace opass::sim
