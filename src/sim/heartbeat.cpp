#include "sim/heartbeat.hpp"

#include <algorithm>

#include "common/require.hpp"

namespace opass::sim {

HeartbeatMonitor::HeartbeatMonitor(Cluster& cluster, dfs::NameNode& nn,
                                   dfs::NodeId namenode_host, Rng& rng, Params params)
    : cluster_(cluster), nn_(nn), namenode_host_(namenode_host), rng_(rng), params_(params),
      last_beat_(cluster.node_count(), 0.0), declared_at_(cluster.node_count(), -1.0) {
  OPASS_REQUIRE(namenode_host < cluster.node_count(), "NameNode host out of range");
  OPASS_REQUIRE(params_.interval > 0, "heartbeat interval must be positive");
  OPASS_REQUIRE(params_.miss_threshold > 0, "miss threshold must be positive");
  OPASS_REQUIRE(nn.node_count() == cluster.node_count(),
                "NameNode and cluster disagree on node count");
}

void HeartbeatMonitor::start(Seconds horizon) {
  const Seconds now = cluster_.simulator().now();
  OPASS_REQUIRE(horizon > now, "horizon must lie in the future");
  OPASS_REQUIRE(groups_.empty(), "start() may be called at most once");
  for (dfs::NodeId n = 0; n < cluster_.node_count(); ++n)
    last_beat_[n] = now;  // everyone is presumed alive at start
  groups_.push_back({0, cluster_.node_count(), now + params_.interval, horizon});
  schedule_round(0);
  schedule_check(now + params_.interval, horizon);
}

void HeartbeatMonitor::watch_node(dfs::NodeId node, Seconds horizon) {
  OPASS_REQUIRE(!groups_.empty(), "watch_node needs start() first");
  OPASS_REQUIRE(node == last_beat_.size(), "watch_node ids must stay dense");
  OPASS_REQUIRE(node < cluster_.node_count(), "node not in the cluster yet");
  const Seconds now = cluster_.simulator().now();
  last_beat_.push_back(now);
  declared_at_.push_back(-1.0);
  groups_.push_back({node, node + 1, now + params_.interval, horizon});
  schedule_round(static_cast<std::uint32_t>(groups_.size() - 1));
}

void HeartbeatMonitor::schedule_round(std::uint32_t group) {
  const Group& g = groups_[group];
  if (g.when > g.horizon) return;
  cluster_.simulator().at(g.when, [this, group](Seconds) { beat(group); });
}

void HeartbeatMonitor::beat(std::uint32_t group) {
  // A failed node sends nothing — that silence is the detection signal.
  senders_.clear();
  for (dfs::NodeId n = groups_[group].first; n < groups_[group].end; ++n)
    if (!cluster_.is_failed(n)) senders_.push_back(n);
  cluster_.send(senders_, namenode_host_, params_.heartbeat_bytes,
                [this](dfs::NodeId node, Seconds arrival) {
                  last_beat_[node] = std::max(last_beat_[node], arrival);
                });
  groups_[group].when += params_.interval;
  schedule_round(group);
}

void HeartbeatMonitor::schedule_check(Seconds when, Seconds horizon) {
  if (when > horizon) return;
  cluster_.simulator().at(when, [this, when, horizon](Seconds now) {
    const Seconds deadline =
        params_.interval * static_cast<double>(params_.miss_threshold) +
        params_.interval;  // one interval of slack for wire latency
    // Bound by the watched set, not cluster_.node_count(): nodes added since
    // the last check are only tracked once watch_node registered them.
    for (dfs::NodeId n = 0; n < last_beat_.size(); ++n) {
      if (declared_at_[n] >= 0) continue;
      if (now - last_beat_[n] <= deadline) continue;
      declared_at_[n] = now;
      ++recoveries_;
      if (recovery_) {
        recovery_(n, now);
      } else {
        // Default: the NameNode re-replicates every block the dead node
        // held, instantly (metadata only; no traffic is modeled).
        nn_.decommission_node(n, rng_);
      }
    }
    schedule_check(when + params_.interval, horizon);
  });
}

bool HeartbeatMonitor::declared_dead(dfs::NodeId node) const {
  OPASS_REQUIRE(node < declared_at_.size(), "node out of range");
  return declared_at_[node] >= 0;
}

Seconds HeartbeatMonitor::detection_time(dfs::NodeId node) const {
  OPASS_REQUIRE(node < declared_at_.size(), "node out of range");
  return declared_at_[node];
}

}  // namespace opass::sim
