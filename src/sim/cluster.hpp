// Simulated cluster: per-node disk and NIC resources on top of FlowSimulator,
// calibrated to the Marmot testbed (GigE network, one SATA disk per node).
//
// A local read streams through the node's disk only; a remote read streams
// through the server's disk, the server's NIC-out and the reader's NIC-in
// (all nodes hang off one switch, as on Marmot, so there is no core
// bottleneck). Every read also pays a fixed positioning latency.
//
// The cluster stays metric-blind (DESIGN.md §8): it emits read events to an
// opass::Probe (common/probe.hpp) after its own accounting updated, so a
// consumer reads the rest from inflight_per_node(), read_slot_count(), ...
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <vector>

#include "common/probe.hpp"
#include "common/units.hpp"
#include "dfs/topology.hpp"
#include "dfs/types.hpp"
#include "sim/flow_sim.hpp"

namespace opass::sim {

/// Hardware calibration. Defaults reproduce the paper's magnitudes: ~0.9 s
/// for an uncontended 64 MB local read, 2–12 s for contended remote reads.
struct ClusterParams {
  BytesPerSec disk_bandwidth = 75.0 * 1024 * 1024;  ///< SATA streaming rate
  BytesPerSec nic_bandwidth = 112.0 * 1024 * 1024;  ///< GigE payload rate
  double disk_beta = 0.25;   ///< disk head-thrash degradation per extra stream
  Seconds seek_latency = 0.05;   ///< positioning + request setup per read
  Seconds remote_latency = 0.002;  ///< extra network round-trip for remote reads
  /// Effective single-stream throughput of one remote HDFS read (one TCP
  /// connection + RPC framing on GigE-era hardware). This is why the paper
  /// sees "more than 2 seconds" for an uncontended remote 64 MB read while
  /// local reads take ~0.9 s. 0 disables the cap.
  BytesPerSec remote_stream_cap = 30.0 * 1024 * 1024;
  /// Shared uplink capacity per rack, each direction (0 = flat network, the
  /// paper's single-switch Marmot). Cross-rack transfers traverse the source
  /// rack's up-link and the destination rack's down-link, modelling an
  /// oversubscribed core.
  BytesPerSec rack_uplink_bandwidth = 0;
  /// Extra round-trip latency for cross-rack transfers.
  Seconds cross_rack_latency = 0.001;
  /// DataNode admission control (HDFS's dfs.datanode.max.transfer.threads /
  /// "xceiver" limit): at most this many reads are served concurrently per
  /// node; excess requests wait in a FIFO queue. 0 = unlimited (pure
  /// bandwidth sharing, the default model).
  std::uint32_t max_concurrent_serves = 0;
};

/// What role a FlowSimulator resource plays in the cluster's hardware model.
/// The obs layer uses this to classify binding-resource intervals into the
/// paper's causal buckets (source disk / source NIC / dest NIC / uplink).
enum class ResourceRole : std::uint8_t {
  kDisk,
  kNicIn,
  kNicOut,
  kRackUp,
  kRackDown,
};

/// Role and owner of one simulator resource: `owner` is a NodeId for
/// disk/NIC roles and a RackId for uplink roles.
struct ResourceInfo {
  ResourceRole role = ResourceRole::kDisk;
  std::uint32_t owner = 0;
};

/// One speed-factor change (degrade_node / restore_node), in event order.
/// Lets post-hoc consumers decide whether a node was degraded at a given
/// virtual tick without keeping a per-tick speed series.
struct SpeedChange {
  std::int64_t ticks = 0;  ///< to_ticks(virtual time) of the change
  dfs::NodeId node = 0;
  double factor = 1.0;
};

/// Causal breakdown of one completed read (record_read_breakdown): the
/// admission-queue wait, the positioning phase and the transfer phase as
/// integer virtual-time ticks, plus the transfer's binding-resource
/// intervals. Boundaries chain (issue <= admit <= transfer_start <= end and
/// the intervals tile [transfer_start, end]), so phase durations sum exactly
/// to the read's span.
struct ReadBreakdown {
  std::int64_t issue_ticks = 0;           ///< request issued (queue entry)
  std::int64_t admit_ticks = 0;           ///< past the admission gate
  std::int64_t transfer_start_ticks = 0;  ///< positioning done, flow started
  std::int64_t end_ticks = 0;             ///< last byte arrived
  std::vector<BindingInterval> transfer;  ///< tiles [transfer_start, end]
};

/// Simulated cluster of `node_count` identical nodes.
class Cluster {
 public:
  /// Flat (single-switch) cluster, as on Marmot.
  Cluster(std::uint32_t node_count, ClusterParams params = {});

  /// Rack topology; when params.rack_uplink_bandwidth > 0, cross-rack
  /// transfers share per-rack uplinks.
  Cluster(const dfs::Topology& topology, ClusterParams params = {});

  /// Not copyable or movable: pending timers and flow completions point
  /// back at this object.
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  std::uint32_t node_count() const { return node_count_; }
  const ClusterParams& params() const { return params_; }

  /// Rack of a node (all 0 on a flat cluster).
  dfs::RackId rack_of(dfs::NodeId node) const;

  FlowSimulator& simulator() { return sim_; }
  const FlowSimulator& simulator() const { return sim_; }

  /// Issue a read of `bytes` from `server`'s disk into a process on
  /// `reader`. `on_complete(end_time)` fires when the transfer finishes.
  /// If the server fails (fail_node) before completion — or is already
  /// failed at issue time — `on_failure(time)` fires instead when provided;
  /// without one the read simply vanishes. Tracks per-node in-flight counts
  /// and served bytes.
  void read(dfs::NodeId reader, dfs::NodeId server, Bytes bytes,
            std::function<void(Seconds)> on_complete,
            std::function<void(Seconds)> on_failure = nullptr);

  /// Fail `node` at virtual time `when` (>= now): every read it is serving
  /// aborts (the reader's on_failure fires), and subsequent reads addressed
  /// to it fail immediately. Mirrors a machine crash; metadata-level
  /// recovery (re-replication) lives in dfs::NameNode::decommission_node.
  void fail_node(dfs::NodeId node, Seconds when);

  /// Scale `node`'s disk and NIC capacities by `factor` in (0, 1], effective
  /// immediately (active transfers re-level at the current virtual time).
  /// Models a straggler: overloaded VM, failing disk, background scan.
  /// Factors don't compound — the factor is always relative to the
  /// calibrated base rates, so degrade(0.5) then degrade(0.25) leaves the
  /// node at 25%, and restore_node puts it back at 100%.
  void degrade_node(dfs::NodeId node, double factor);

  /// Undo degrade_node: the node's disk and NICs return to full speed.
  void restore_node(dfs::NodeId node);

  /// Grow the cluster by one node on `rack` at the current virtual time;
  /// returns the new node's id (== old node_count()). The new node starts
  /// idle, healthy and empty. When rack uplinks are modeled, `rack` must be
  /// an existing rack. Mirrors dfs::NameNode::add_node — callers keep the
  /// two membership views in step (sim::FaultInjector does this).
  dfs::NodeId add_node(dfs::RackId rack = 0);

  /// Replicate `bytes` from `src`'s disk onto `dst`'s disk (re-replication /
  /// balancer traffic). The transfer streams through src's disk and NIC-out,
  /// dst's NIC-in and disk (plus rack uplinks when modeled), competing with
  /// reads for the same resources, and it respects the per-node admission
  /// gate on `src`. If `src` fails before completion, `on_failure(time)`
  /// fires instead (dst failing mid-copy is not modeled).
  void replicate(dfs::NodeId src, dfs::NodeId dst, Bytes bytes,
                 std::function<void(Seconds)> on_complete,
                 std::function<void(Seconds)> on_failure = nullptr);

  /// True once the node's failure time has passed.
  bool is_failed(dfs::NodeId node) const;

  /// Per-node failure flags (index = NodeId, nonzero = failed): the liveness
  /// filter dfs::choose_serving_node takes.
  const std::vector<char>& failed_nodes() const { return failed_; }

  /// Arrival of one message of a send: (its source node, arrival time).
  using Arrival = std::function<void(dfs::NodeId, Seconds)>;

  /// Network-only transfers of `bytes` from each of `sources` to `dst` (no
  /// disk involvement): heartbeats, MPI messages, RPCs. Each message starts
  /// after its own latency, the remote latency plus the cross-rack latency
  /// when it leaves its rack; a same-node send pays only the remote latency
  /// and occupies no NIC. `on_arrival(source, time)` fires once per message
  /// as its last byte arrives; it is stored once for the whole batch and may
  /// be empty.
  /// Messages that start at one virtual time start from one simulator timer,
  /// in source order, which fires them exactly as one timer per message
  /// would (DESIGN.md §8). An empty `sources` sends nothing.
  void send(std::span<const dfs::NodeId> sources, dfs::NodeId dst, Bytes bytes,
            Arrival on_arrival);

  /// Reads currently being served by each node (in-flight, including the
  /// positioning phase). Used by least-loaded replica choice.
  const std::vector<std::uint32_t>& inflight_per_node() const { return inflight_; }

  /// Total bytes each node has served so far (completed reads).
  const std::vector<Bytes>& served_bytes() const { return served_; }

  /// Cumulative seconds the node's disk had at least one active transfer.
  Seconds disk_busy_time(dfs::NodeId node) const;

  /// Peak number of concurrent transfers on the node's disk — the depth of
  /// the hot-node convoy the paper's Fig. 1 observes.
  std::uint32_t disk_peak_load(dfs::NodeId node) const;

  /// How often a transfer arrived at this node's disk while it was already
  /// serving (head-thrash degradation events; see FlowSimulator).
  std::uint64_t disk_degraded_joins(dfs::NodeId node) const;

  /// Number of reads that had to wait in the node's admission FIFO (only
  /// non-zero when params().max_concurrent_serves > 0).
  std::uint64_t admission_waits(dfs::NodeId node) const;

  /// Peak depth of the node's admission FIFO over the run so far.
  std::uint32_t peak_admission_queue(dfs::NodeId node) const;

  /// Run the simulation to quiescence; returns the final virtual time.
  Seconds run() { return sim_.run(); }

  /// Read-op slots ever allocated. Slots are reused from a free list, so this
  /// equals the peak number of simultaneously in-flight reads, not the total
  /// number of reads issued.
  std::uint32_t read_slot_count() const { return static_cast<std::uint32_t>(read_pool_.size()); }

  /// Attach (or with nullptr, detach) the read-lifecycle probe. Borrowed;
  /// must outlive the cluster or be detached first. At most one at a time.
  void set_probe(Probe* probe) { probe_ = probe; }

  // --- causal tracing (obs/spans) ------------------------------------------

  /// Role and owner of a simulator resource this cluster created.
  ResourceInfo resource_info(ResourceId r) const;

  /// Every degrade/restore event so far, in application order (to_ticks
  /// timestamps). Consumers replay it to decide whether a binding resource's
  /// owner was running slow during an interval.
  const std::vector<SpeedChange>& speed_changes() const { return speed_changes_; }

  /// Opt in to per-read causal breakdowns: each completed read's phase
  /// boundaries and binding-resource intervals become available to its
  /// completion callback via last_read_breakdown(). Enables the simulator's
  /// attribution recording; off by default (observation only — the simulated
  /// schedule is unchanged).
  void record_read_breakdown(bool on);
  bool read_breakdown_recording() const { return record_breakdown_; }

  /// Breakdown of the read whose on_complete is currently being invoked;
  /// valid only inside that callback and only while recording. The returned
  /// reference is overwritten by the next completion.
  const ReadBreakdown& last_read_breakdown() const { return last_breakdown_; }

 private:
  /// Internal read handle: low 32 bits address a reusable slot in
  /// `read_pool_`, high 32 bits carry the generation tag that makes handles
  /// to finished reads inert (same scheme as sim::FlowId).
  using ReadId = std::uint64_t;

  /// No slot: the end of an admission FIFO, or an empty one.
  static constexpr std::uint32_t kNoSlot = UINT32_MAX;

  struct ReadOp {
    dfs::NodeId reader = 0;
    dfs::NodeId server = 0;
    Bytes bytes = 0;
    std::uint32_t tag = 0;      // generation of the current occupant
    std::uint32_t next_waiting = kNoSlot;  // next slot in the server's FIFO, while queued
    bool active = false;        // slot occupied
    bool admitted = false;      // past the per-node admission gate
    bool transferring = false;  // false while in the positioning phase
    bool copy = false;          // replicate(): destination disk joins the path
    FlowId flow = 0;            // valid when transferring
    std::int64_t issue_ticks = 0;   // phase boundaries (record_read_breakdown)
    std::int64_t admit_ticks = 0;
    std::int64_t transfer_start_ticks = 0;
    std::function<void(Seconds)> on_complete;
    std::function<void(Seconds)> on_failure;
  };

  /// A node's admission FIFO, threaded through the read-slot pool by
  /// ReadOp::next_waiting: the queued slots from head to tail in arrival
  /// order. Every queued slot is active; only fail_node retires one, and it
  /// empties the queue too.
  struct AdmissionQueue {
    std::uint32_t head = kNoSlot;
    std::uint32_t tail = kNoSlot;
    std::uint32_t length = 0;
    std::uint32_t peak = 0;   // max length so far
    std::uint64_t waits = 0;  // reads ever queued
  };

  /// The messages of one send() call until the last of them arrives. Slots
  /// live in a deque, so an arrival callback that sends again never moves
  /// the batch it runs from.
  struct Batch {
    Arrival on_arrival;
    std::vector<dfs::NodeId> sources;
    std::vector<std::uint32_t> start;  // per source: index of its start time
    dfs::NodeId dst = 0;
    Bytes bytes = 0;
    std::uint32_t pending = 0;  // messages not yet arrived; 0 = slot free
  };

  void start_messages(std::uint32_t batch, std::uint32_t start);
  void arrive(std::uint32_t batch, std::uint32_t index, Seconds at);
  void start_read(dfs::NodeId reader, dfs::NodeId server, Bytes bytes, bool copy,
                  std::function<void(Seconds)> on_complete,
                  std::function<void(Seconds)> on_failure);
  void admit(std::uint32_t slot);
  void retire_read(std::uint32_t slot);
  void release_serve_slot(dfs::NodeId server);
  void emit(Seconds at, ProbeKind kind, dfs::NodeId server, Bytes bytes) const {
    if (probe_ != nullptr) probe_->on_event({at, kind, server, 0, bytes});
  }

  std::uint32_t node_count_;
  ClusterParams params_;
  Probe* probe_ = nullptr;
  FlowSimulator sim_;
  std::vector<ResourceId> disk_, nic_in_, nic_out_;
  std::vector<dfs::RackId> rack_of_node_;
  std::vector<ResourceId> rack_up_, rack_down_;  // per rack, when modeled
  std::vector<std::uint32_t> inflight_;
  std::vector<Bytes> served_;
  std::vector<char> failed_;
  std::vector<ReadOp> read_pool_;               // slot pool, free-list reused
  std::vector<std::uint32_t> free_read_slots_;
  std::uint64_t read_seq_ = 0;
  std::vector<std::uint32_t> serving_;             // admitted reads per node
  std::vector<AdmissionQueue> queues_;             // admission FIFO per node
  std::vector<ResourceInfo> resource_info_;        // indexed by ResourceId
  std::vector<SpeedChange> speed_changes_;
  std::deque<Batch> batches_;                      // send() batches, free-list reused
  std::vector<std::uint32_t> free_batches_;
  std::vector<Seconds> start_times_;               // send() scratch: distinct start times
  bool record_breakdown_ = false;
  ReadBreakdown last_breakdown_;  // of the read completing right now
};

}  // namespace opass::sim
