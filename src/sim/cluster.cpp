#include "sim/cluster.hpp"

#include <algorithm>

namespace opass::sim {

Cluster::Cluster(std::uint32_t node_count, ClusterParams params)
    : Cluster(dfs::Topology::single_rack(node_count), params) {}

Cluster::Cluster(const dfs::Topology& topology, ClusterParams params)
    : node_count_(topology.node_count()), params_(params), inflight_(node_count_, 0),
      served_(node_count_, 0), failed_(node_count_, 0), speed_(node_count_, 1.0),
      serving_(node_count_, 0), queues_(node_count_) {
  OPASS_REQUIRE(node_count_ > 0, "cluster needs at least one node");
  disk_.reserve(node_count_);
  nic_in_.reserve(node_count_);
  nic_out_.reserve(node_count_);
  rack_of_node_.reserve(node_count_);
  for (std::uint32_t n = 0; n < node_count_; ++n) {
    disk_.push_back(sim_.add_resource(params_.disk_bandwidth, params_.disk_beta));
    nic_in_.push_back(sim_.add_resource(params_.nic_bandwidth));
    nic_out_.push_back(sim_.add_resource(params_.nic_bandwidth));
    rack_of_node_.push_back(topology.rack_of(n));
    resource_info_.push_back({ResourceRole::kDisk, n});
    resource_info_.push_back({ResourceRole::kNicIn, n});
    resource_info_.push_back({ResourceRole::kNicOut, n});
  }
  if (params_.rack_uplink_bandwidth > 0) {
    for (dfs::RackId r = 0; r < topology.rack_count(); ++r) {
      rack_up_.push_back(sim_.add_resource(params_.rack_uplink_bandwidth));
      rack_down_.push_back(sim_.add_resource(params_.rack_uplink_bandwidth));
      resource_info_.push_back({ResourceRole::kRackUp, r});
      resource_info_.push_back({ResourceRole::kRackDown, r});
    }
  }
}

ResourceInfo Cluster::resource_info(ResourceId r) const {
  OPASS_REQUIRE(r < resource_info_.size(), "resource out of range");
  return resource_info_[r];
}

void Cluster::record_read_breakdown(bool on) {
  record_breakdown_ = on;
  sim_.record_attribution(on);
}

void Cluster::degrade_node(dfs::NodeId node, double factor) {
  OPASS_REQUIRE(node < node_count_, "node out of range");
  OPASS_REQUIRE(factor > 0 && factor <= 1.0, "speed factor must be in (0, 1]");
  speed_[node] = factor;
  speed_changes_.push_back({to_ticks(sim_.now()), node, factor});
  sim_.set_resource_capacity(disk_[node], params_.disk_bandwidth * factor);
  sim_.set_resource_capacity(nic_in_[node], params_.nic_bandwidth * factor);
  sim_.set_resource_capacity(nic_out_[node], params_.nic_bandwidth * factor);
}

void Cluster::restore_node(dfs::NodeId node) { degrade_node(node, 1.0); }

double Cluster::speed_factor(dfs::NodeId node) const {
  OPASS_REQUIRE(node < node_count_, "node out of range");
  return speed_[node];
}

dfs::NodeId Cluster::add_node(dfs::RackId rack) {
  if (!rack_up_.empty())
    OPASS_REQUIRE(rack < rack_up_.size(), "new node's rack has no modeled uplink");
  const dfs::NodeId id = node_count_++;
  disk_.push_back(sim_.add_resource(params_.disk_bandwidth, params_.disk_beta));
  nic_in_.push_back(sim_.add_resource(params_.nic_bandwidth));
  nic_out_.push_back(sim_.add_resource(params_.nic_bandwidth));
  resource_info_.push_back({ResourceRole::kDisk, id});
  resource_info_.push_back({ResourceRole::kNicIn, id});
  resource_info_.push_back({ResourceRole::kNicOut, id});
  rack_of_node_.push_back(rack);
  inflight_.push_back(0);
  served_.push_back(0);
  failed_.push_back(0);
  speed_.push_back(1.0);
  serving_.push_back(0);
  queues_.emplace_back();
  return id;
}

dfs::RackId Cluster::rack_of(dfs::NodeId node) const {
  OPASS_REQUIRE(node < node_count_, "node out of range");
  return rack_of_node_[node];
}

double Cluster::disk_utilization(dfs::NodeId node) const {
  OPASS_REQUIRE(node < node_count_, "node out of range");
  return sim_.resource_utilization(disk_[node]);
}

double Cluster::nic_out_utilization(dfs::NodeId node) const {
  OPASS_REQUIRE(node < node_count_, "node out of range");
  return sim_.resource_utilization(nic_out_[node]);
}

Seconds Cluster::disk_busy_time(dfs::NodeId node) const {
  OPASS_REQUIRE(node < node_count_, "node out of range");
  return sim_.resource_busy_time(disk_[node]);
}

std::uint32_t Cluster::disk_peak_load(dfs::NodeId node) const {
  OPASS_REQUIRE(node < node_count_, "node out of range");
  return sim_.resource_peak_load(disk_[node]);
}

std::uint64_t Cluster::disk_degraded_joins(dfs::NodeId node) const {
  OPASS_REQUIRE(node < node_count_, "node out of range");
  return sim_.resource_degraded_joins(disk_[node]);
}

std::uint64_t Cluster::admission_waits(dfs::NodeId node) const {
  OPASS_REQUIRE(node < node_count_, "node out of range");
  return queues_[node].waits;
}

std::uint32_t Cluster::peak_admission_queue(dfs::NodeId node) const {
  OPASS_REQUIRE(node < node_count_, "node out of range");
  return queues_[node].peak;
}

void Cluster::read(dfs::NodeId reader, dfs::NodeId server, Bytes bytes,
                   std::function<void(Seconds)> on_complete,
                   std::function<void(Seconds)> on_failure) {
  start_read(reader, server, bytes, /*copy=*/false, std::move(on_complete),
             std::move(on_failure));
}

void Cluster::replicate(dfs::NodeId src, dfs::NodeId dst, Bytes bytes,
                        std::function<void(Seconds)> on_complete,
                        std::function<void(Seconds)> on_failure) {
  OPASS_REQUIRE(src != dst, "replication source and destination must differ");
  OPASS_REQUIRE(dst < node_count_ && !failed_[dst], "replication target is not alive");
  // A copy is a remote read issued by `dst` whose path also includes dst's
  // disk (the write side of the pipeline): same slot pool, same admission
  // gate on the serving node, same abort-on-source-failure semantics.
  start_read(dst, src, bytes, /*copy=*/true, std::move(on_complete),
             std::move(on_failure));
}

void Cluster::start_read(dfs::NodeId reader, dfs::NodeId server, Bytes bytes, bool copy,
                         std::function<void(Seconds)> on_complete,
                         std::function<void(Seconds)> on_failure) {
  OPASS_REQUIRE(reader < node_count_ && server < node_count_, "node out of range");
  if (failed_[server]) {
    // Addressing a dead server: fail after the connection-attempt latency.
    sim_.after(params_.remote_latency, [cb = std::move(on_failure)](Seconds t) {
      if (cb) cb(t);
    });
    return;
  }
  ++inflight_[server];

  std::uint32_t slot;
  if (!free_read_slots_.empty()) {
    slot = free_read_slots_.back();
    free_read_slots_.pop_back();
  } else {
    OPASS_CHECK(read_pool_.size() < 0xffffffffull, "read slot space exhausted");
    slot = static_cast<std::uint32_t>(read_pool_.size());
    read_pool_.emplace_back();
  }
  ReadOp& op = read_pool_[slot];
  OPASS_CHECK(!op.active && !op.on_complete && !op.on_failure,
              "read slot reused before being fully retired");
  op.reader = reader;
  op.server = server;
  op.bytes = bytes;
  op.tag = static_cast<std::uint32_t>(++read_seq_);
  op.active = true;
  op.admitted = false;
  op.transferring = false;
  op.copy = copy;
  op.issue_ticks = to_ticks(sim_.now());
  op.on_complete = std::move(on_complete);
  op.on_failure = std::move(on_failure);

  // DataNode admission gate (xceiver limit): queue at the tail of the
  // server's FIFO when it already serves its maximum number of concurrent
  // reads.
  emit(sim_.now(), ProbeKind::kReadIssued, server, bytes);
  if (params_.max_concurrent_serves > 0 &&
      serving_[server] >= params_.max_concurrent_serves) {
    AdmissionQueue& queue = queues_[server];
    op.next_waiting = kNoSlot;
    if (queue.length == 0) {
      queue.head = slot;
    } else {
      read_pool_[queue.tail].next_waiting = slot;
    }
    queue.tail = slot;
    ++queue.length;
    ++queue.waits;
    queue.peak = std::max(queue.peak, queue.length);
    return;
  }
  admit(slot);
}

/// Return a finished/aborted read's slot to the free list, releasing any
/// callback state it still holds.
void Cluster::retire_read(std::uint32_t slot) {
  ReadOp& op = read_pool_[slot];
  op.active = false;
  op.transferring = false;
  op.on_complete = nullptr;
  op.on_failure = nullptr;
  free_read_slots_.push_back(slot);
}

void Cluster::admit(std::uint32_t slot) {
  ReadOp& op = read_pool_[slot];
  OPASS_CHECK(op.active && !op.admitted, "admitting a read that is not active and waiting");
  const ReadId id = (static_cast<ReadId>(op.tag) << 32) | slot;
  op.admitted = true;
  op.admit_ticks = to_ticks(sim_.now());
  ++serving_[op.server];

  const bool local = op.reader == op.server;
  const bool cross_rack = rack_of_node_[op.reader] != rack_of_node_[op.server];
  const Seconds latency = params_.seek_latency + (local ? 0.0 : params_.remote_latency) +
                          (cross_rack ? params_.cross_rack_latency : 0.0);

  // The positioning latency elapses before the transfer occupies bandwidth.
  // Captures are kept to {this, id} so the std::function stays within the
  // small-buffer optimization — no per-read heap allocation here.
  sim_.after(latency, [this, id](Seconds) {
    const std::uint32_t rslot = static_cast<std::uint32_t>(id);
    ReadOp& read = read_pool_[rslot];
    if (!read.active || read.tag != static_cast<std::uint32_t>(id >> 32))
      return;  // aborted by a failure meanwhile
    FlowPath path;
    if (read.reader == read.server) {
      path = {disk_[read.server]};
    } else {
      path = {disk_[read.server], nic_out_[read.server], nic_in_[read.reader]};
      if (!rack_up_.empty() && rack_of_node_[read.reader] != rack_of_node_[read.server]) {
        path.push_back(rack_up_[rack_of_node_[read.server]]);
        path.push_back(rack_down_[rack_of_node_[read.reader]]);
      }
      if (read.copy) path.push_back(disk_[read.reader]);  // write side of a copy
    }
    const BytesPerSec cap = read.reader == read.server ? 0.0 : params_.remote_stream_cap;
    read.transferring = true;
    read.transfer_start_ticks = to_ticks(sim_.now());
    read.flow = sim_.start_flow(std::move(path), read.bytes,
                              [this, id](Seconds end) {
                                const std::uint32_t cslot = static_cast<std::uint32_t>(id);
                                ReadOp& done = read_pool_[cslot];
                                OPASS_CHECK(done.active &&
                                                done.tag == static_cast<std::uint32_t>(id >> 32),
                                            "completed read missing from the active set");
                                OPASS_CHECK(inflight_[done.server] > 0,
                                            "in-flight count underflow");
                                --inflight_[done.server];
                                served_[done.server] += done.bytes;
                                const dfs::NodeId server = done.server;
                                const Bytes bytes = done.bytes;
                                if (record_breakdown_) {
                                  last_breakdown_.issue_ticks = done.issue_ticks;
                                  last_breakdown_.admit_ticks = done.admit_ticks;
                                  last_breakdown_.transfer_start_ticks =
                                      done.transfer_start_ticks;
                                  last_breakdown_.end_ticks = to_ticks(end);
                                  const auto* attr = sim_.completed_attribution(done.flow);
                                  last_breakdown_.transfer =
                                      attr != nullptr ? *attr
                                                      : std::vector<BindingInterval>{};
                                }
                                auto cb = std::move(done.on_complete);
                                retire_read(cslot);
                                release_serve_slot(server);
                                emit(end, ProbeKind::kReadCompleted, server, bytes);
                                if (cb) cb(end);
                              },
                              cap);
  });
}

void Cluster::release_serve_slot(dfs::NodeId server) {
  OPASS_CHECK(serving_[server] > 0, "serve-slot count underflow");
  --serving_[server];
  if (failed_[server]) return;  // the failure path drains the queue itself
  AdmissionQueue& queue = queues_[server];
  if (queue.length == 0) return;
  const std::uint32_t next = queue.head;
  queue.head = read_pool_[next].next_waiting;
  if (--queue.length == 0) queue.tail = kNoSlot;
  admit(next);
}

void Cluster::fail_node(dfs::NodeId node, Seconds when) {
  OPASS_REQUIRE(node < node_count_, "node out of range");
  OPASS_REQUIRE(when >= sim_.now(), "cannot fail a node in the past");
  sim_.at(when, [this, node](Seconds t) {
    if (failed_[node]) return;
    failed_[node] = 1;
    // Abort every read this node is serving or queueing. The pool holds one
    // slot per in-flight read (peak concurrency, not total reads), so this
    // scan is proportional to the live set.
    std::vector<std::function<void(Seconds)>> failures;
    for (std::uint32_t slot = 0; slot < read_pool_.size(); ++slot) {
      ReadOp& op = read_pool_[slot];
      if (!op.active || op.server != node) continue;
      if (op.transferring) sim_.cancel_flow(op.flow);
      if (op.admitted) {
        OPASS_CHECK(serving_[node] > 0, "serve-slot count underflow");
        --serving_[node];
      }
      OPASS_CHECK(inflight_[node] > 0, "in-flight count underflow");
      --inflight_[node];
      const Bytes bytes = op.bytes;
      if (op.on_failure) failures.push_back(std::move(op.on_failure));
      retire_read(slot);
      emit(t, ProbeKind::kReadAborted, node, bytes);
    }
    AdmissionQueue& queue = queues_[node];
    queue.head = queue.tail = kNoSlot;
    queue.length = 0;
    for (auto& cb : failures) cb(t);
  });
}

bool Cluster::is_failed(dfs::NodeId node) const {
  OPASS_REQUIRE(node < node_count_, "node out of range");
  return failed_[node] != 0;
}

void Cluster::send(std::span<const dfs::NodeId> sources, dfs::NodeId dst, Bytes bytes,
                   Arrival on_arrival) {
  OPASS_REQUIRE(dst < node_count_, "node out of range");
  for (dfs::NodeId src : sources) OPASS_REQUIRE(src < node_count_, "node out of range");
  if (sources.empty()) return;
  std::uint32_t slot;
  if (!free_batches_.empty()) {
    slot = free_batches_.back();
    free_batches_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(batches_.size());
    batches_.emplace_back();
  }
  Batch& batch = batches_[slot];
  batch.on_arrival = std::move(on_arrival);
  batch.sources.assign(sources.begin(), sources.end());
  batch.start.clear();
  batch.dst = dst;
  batch.bytes = bytes;
  batch.pending = static_cast<std::uint32_t>(sources.size());

  // One timer per distinct start time, scheduled in order of first use, as
  // the per-message timers it replaces would have been.
  start_times_.clear();
  const Seconds now = sim_.now();
  for (dfs::NodeId src : batch.sources) {
    const bool cross_rack = rack_of_node_[src] != rack_of_node_[dst];
    // Loopback: software latency only, no NIC occupancy.
    const Seconds latency =
        src == dst ? params_.remote_latency
                   : params_.remote_latency + (cross_rack ? params_.cross_rack_latency : 0.0);
    const Seconds when = now + latency;
    const auto seen = std::find(start_times_.begin(), start_times_.end(), when);
    batch.start.push_back(static_cast<std::uint32_t>(seen - start_times_.begin()));
    if (seen != start_times_.end()) continue;
    const auto start = static_cast<std::uint32_t>(start_times_.size());
    start_times_.push_back(when);
    sim_.at(when, [this, slot, start](Seconds) { start_messages(slot, start); });
  }
}

/// Put every message of `batch` that starts at its `start`-th start time on
/// the wire, in source order; a loopback message arrives right away.
void Cluster::start_messages(std::uint32_t slot, std::uint32_t start) {
  const Batch& batch = batches_[slot];
  for (std::uint32_t i = 0; i < batch.sources.size(); ++i) {
    if (batch.start[i] != start) continue;
    const dfs::NodeId src = batch.sources[i];
    if (src == batch.dst) {
      arrive(slot, i, sim_.now());
      continue;
    }
    FlowPath path{nic_out_[src], nic_in_[batch.dst]};
    if (!rack_up_.empty() && rack_of_node_[src] != rack_of_node_[batch.dst]) {
      path.push_back(rack_up_[rack_of_node_[src]]);
      path.push_back(rack_down_[rack_of_node_[batch.dst]]);
    }
    sim_.start_flow(std::move(path), batch.bytes,
                    [this, slot, i](Seconds end) { arrive(slot, i, end); });
  }
}

/// Deliver message `index` of `batch`, and free the batch after its last.
void Cluster::arrive(std::uint32_t slot, std::uint32_t index, Seconds at) {
  Batch& batch = batches_[slot];
  OPASS_CHECK(batch.pending > 0, "message arrived from a finished batch");
  if (batch.on_arrival) batch.on_arrival(batch.sources[index], at);
  if (--batch.pending > 0) return;
  batch.on_arrival = nullptr;  // drop the captured state with the batch
  free_batches_.push_back(slot);
}

}  // namespace opass::sim
