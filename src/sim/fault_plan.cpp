#include "sim/fault_plan.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <sstream>

#include "common/require.hpp"

namespace opass::sim {

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrash:
      return "crash";
    case FaultKind::kSlow:
      return "slow";
    case FaultKind::kRestore:
      return "restore";
    case FaultKind::kJoin:
      return "join";
    case FaultKind::kDecommission:
      return "decommission";
    case FaultKind::kRebalance:
      return "rebalance";
  }
  return "?";
}

namespace {

constexpr const char* kKindSet = "(crash | slow | restore | join | decommission | rebalance)";

bool kind_from_name(const std::string& name, FaultKind& out) {
  for (FaultKind k : {FaultKind::kCrash, FaultKind::kSlow, FaultKind::kRestore,
                      FaultKind::kJoin, FaultKind::kDecommission, FaultKind::kRebalance}) {
    if (name == fault_kind_name(k)) {
      out = k;
      return true;
    }
  }
  return false;
}

/// Minimal JSON-subset reader for the fault-plan schema: objects, arrays,
/// strings, numbers. Schema-driven (no generic value tree) so every error
/// can name the offending field — the contract the CLI relies on.
struct Cursor {
  const std::string& s;
  std::size_t i = 0;

  void skip_ws() {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' || s[i] == '\r')) ++i;
  }
  bool at(char c) {
    skip_ws();
    return i < s.size() && s[i] == c;
  }
  bool eat(char c) {
    if (!at(c)) return false;
    ++i;
    return true;
  }
};

[[noreturn]] void fail(const std::string& where, const std::string& msg) {
  OPASS_REQUIRE(false, where + ": " + msg);
  std::abort();  // unreachable; OPASS_REQUIRE(false, ...) always throws
}

std::string parse_json_string(Cursor& c, const std::string& where) {
  if (!c.eat('"')) fail(where, "expected a string");
  std::string out;
  while (c.i < c.s.size() && c.s[c.i] != '"') {
    if (c.s[c.i] == '\\') fail(where, "escape sequences are not supported");
    out.push_back(c.s[c.i++]);
  }
  if (!c.eat('"')) fail(where, "unterminated string");
  return out;
}

double parse_json_number(Cursor& c, const std::string& where, const std::string& field) {
  c.skip_ws();
  const char* begin = c.s.c_str() + c.i;
  char* end = nullptr;
  const double v = std::strtod(begin, &end);
  if (end == begin) fail(where, "field \"" + field + "\" must be a number");
  c.i += static_cast<std::size_t>(end - begin);
  return v;
}

std::uint32_t as_index(double v, const std::string& where, const std::string& field) {
  if (v < 0 || v != std::floor(v) || v > static_cast<double>(UINT32_MAX))
    fail(where, "field \"" + field + "\" must be a non-negative integer");
  return static_cast<std::uint32_t>(v);
}

FaultEvent parse_event(Cursor& c, std::size_t index) {
  const std::string where = "fault plan event " + std::to_string(index);
  if (!c.eat('{')) fail(where, "expected an object");
  FaultEvent ev;
  bool have_at = false, have_kind = false, have_node = false, have_factor = false;
  if (!c.at('}')) {
    do {
      const std::string key = parse_json_string(c, where);
      if (!c.eat(':')) fail(where, "expected ':' after field \"" + key + "\"");
      if (key == "at") {
        ev.at = parse_json_number(c, where, key);
        if (ev.at < 0) fail(where, "field \"at\" must be >= 0");
        have_at = true;
      } else if (key == "kind") {
        const std::string name = parse_json_string(c, where);
        if (!kind_from_name(name, ev.kind))
          fail(where, "unknown kind \"" + name + "\" " + kKindSet);
        have_kind = true;
      } else if (key == "node") {
        ev.node = as_index(parse_json_number(c, where, key), where, key);
        have_node = true;
      } else if (key == "factor") {
        ev.factor = parse_json_number(c, where, key);
        if (!(ev.factor > 0 && ev.factor <= 1.0))
          fail(where, "field \"factor\" must be in (0, 1]");
        have_factor = true;
      } else if (key == "rack") {
        ev.rack = as_index(parse_json_number(c, where, key), where, key);
      } else if (key == "tolerance") {
        ev.tolerance = as_index(parse_json_number(c, where, key), where, key);
      } else {
        fail(where, "unknown field \"" + key +
                        "\" (at | kind | node | factor | rack | tolerance)");
      }
    } while (c.eat(','));
  }
  if (!c.eat('}')) fail(where, "expected '}' to close the event object");

  if (!have_at) fail(where, "missing field \"at\"");
  if (!have_kind) fail(where, "missing field \"kind\"");
  const bool needs_node = ev.kind == FaultKind::kCrash || ev.kind == FaultKind::kSlow ||
                          ev.kind == FaultKind::kRestore ||
                          ev.kind == FaultKind::kDecommission;
  if (needs_node && !have_node)
    fail(where, "missing field \"node\" (required for kind \"" +
                    std::string(fault_kind_name(ev.kind)) + "\")");
  if (ev.kind == FaultKind::kSlow && !have_factor)
    fail(where, "missing field \"factor\" (required for kind \"slow\")");
  return ev;
}

}  // namespace

FaultPlan parse_fault_plan(const std::string& json_text) {
  const std::string where = "fault plan";
  Cursor c{json_text};
  if (!c.eat('{')) fail(where, "expected a top-level JSON object");
  FaultPlan plan;
  if (!c.at('}')) {
    do {
      const std::string key = parse_json_string(c, where);
      if (!c.eat(':')) fail(where, "expected ':' after field \"" + key + "\"");
      if (key == "horizon") {
        plan.horizon = parse_json_number(c, where, key);
        if (!(plan.horizon > 0)) fail(where, "field \"horizon\" must be positive");
      } else if (key == "max_concurrent_copies") {
        plan.max_concurrent_copies = as_index(parse_json_number(c, where, key), where, key);
        if (plan.max_concurrent_copies == 0)
          fail(where, "field \"max_concurrent_copies\" must be >= 1");
      } else if (key == "events") {
        if (!c.eat('[')) fail(where, "field \"events\" must be an array");
        if (!c.at(']')) {
          do {
            plan.events.push_back(parse_event(c, plan.events.size()));
          } while (c.eat(','));
        }
        if (!c.eat(']')) fail(where, "expected ']' to close the events array");
      } else {
        fail(where,
             "unknown field \"" + key + "\" (horizon | max_concurrent_copies | events)");
      }
    } while (c.eat(','));
  }
  if (!c.eat('}')) fail(where, "expected '}' to close the top-level object");
  c.skip_ws();
  if (c.i != json_text.size()) fail(where, "trailing characters after the top-level object");

  for (const FaultEvent& ev : plan.events)
    if (ev.at > plan.horizon)
      fail(where, "event at t=" + std::to_string(ev.at) + " lies beyond the horizon");
  return plan;
}

FaultPlan load_fault_plan(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  OPASS_REQUIRE(in.good(), "cannot read fault plan file: " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return parse_fault_plan(text.str());
}

// --- injector ---------------------------------------------------------------

FaultInjector::FaultInjector(Cluster& cluster, dfs::NameNode& nn, HeartbeatMonitor& monitor,
                             FaultPlan plan)
    : cluster_(cluster), nn_(nn), monitor_(monitor), plan_(std::move(plan)) {}

void FaultInjector::arm() {
  OPASS_REQUIRE(!armed_, "fault plan already armed");
  // Check the events in firing order, (max(at, now), index) like the
  // simulator's timers: each sees the nodes that exist by then (a join adds
  // one), less those an earlier event crashed or decommissioned. A join
  // names one of the racks the cluster has; joins add nodes, never racks.
  const Seconds start = cluster_.simulator().now();
  const std::uint32_t racks = nn_.topology().rack_count();
  std::vector<std::size_t> order(plan_.events.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return std::max(plan_.events[a].at, start) < std::max(plan_.events[b].at, start);
  });
  constexpr std::size_t kPresent = SIZE_MAX;
  std::vector<std::size_t> removed_by(cluster_.node_count(), kPresent);  // event index
  for (const std::size_t i : order) {
    const FaultEvent& ev = plan_.events[i];
    if (ev.kind == FaultKind::kJoin) {
      OPASS_REQUIRE(ev.rack < racks, "fault plan event " + std::to_string(i) + " (join on rack " +
                                         std::to_string(ev.rack) + ") names a rack the " +
                                         std::to_string(racks) + "-rack cluster does not have");
      removed_by.push_back(kPresent);
    }
    if (ev.kind == FaultKind::kJoin || ev.kind == FaultKind::kRebalance) continue;
    const std::string what = "fault plan event " + std::to_string(i) + " (" +
                             fault_kind_name(ev.kind) + " of node " + std::to_string(ev.node);
    const std::size_t known = removed_by.size();
    OPASS_REQUIRE(ev.node < known,
                  what + ") fires when " + std::to_string(known) + " nodes exist");
    // A crash or decommission takes the node out. A slow or restore may
    // still reach a draining node, which sources its own copies
    // (start_drain), but not a crashed one.
    const bool takes_out = ev.kind == FaultKind::kCrash || ev.kind == FaultKind::kDecommission;
    const std::size_t j = removed_by[ev.node];
    const bool clash = j != kPresent && (takes_out || plan_.events[j].kind == FaultKind::kCrash);
    OPASS_REQUIRE(!clash, what + ") fires after event " + std::to_string(j) + " (" +
                              fault_kind_name(plan_.events[j].kind) + ") took it out");
    if (takes_out) removed_by[ev.node] = i;
  }

  armed_ = true;
  monitor_.set_recovery_handler(
      [this](dfs::NodeId node, Seconds now) { on_declared(node, now); });
  for (std::size_t i = 0; i < plan_.events.size(); ++i)
    cluster_.simulator().at(plan_.events[i].at, [this, i](Seconds now) { apply(now, i); });
}

bool FaultInjector::node_usable(dfs::NodeId node) const {
  return !cluster_.is_failed(node) && !nn_.is_decommissioned(node);
}

void FaultInjector::apply(Seconds now, std::size_t index) {
  const FaultEvent& event = plan_.events[index];
  switch (event.kind) {
    case FaultKind::kCrash:
      ++stats_.crashes;
      cluster_.fail_node(event.node, now);
      break;
    case FaultKind::kSlow:
      ++stats_.slowdowns;
      cluster_.degrade_node(event.node, event.factor);
      break;
    case FaultKind::kRestore:
      ++stats_.restores;
      cluster_.restore_node(event.node);
      break;
    case FaultKind::kJoin: {
      ++stats_.joins;
      const dfs::NodeId id = nn_.add_node(event.rack);
      const dfs::NodeId cid = cluster_.add_node(event.rack);
      OPASS_CHECK(id == cid, "NameNode and cluster disagree on the joined node's id");
      if (!inbound_.empty()) inbound_.resize(cluster_.node_count());
      monitor_.watch_node(id, plan_.horizon);
      if (membership_) membership_(now, MembershipEvent::kNodeJoined, id);
      break;
    }
    case FaultKind::kDecommission:
      ++stats_.decommissions;
      start_drain(now, event.node);
      break;
    case FaultKind::kRebalance:
      ++stats_.rebalances;
      start_rebalance(now, event.tolerance);
      break;
  }
  emit(now, ProbeKind::kFault, index);
}

dfs::NodeId FaultInjector::pick_source(dfs::ChunkId chunk) const {
  dfs::NodeId best = dfs::kInvalidNode;
  for (dfs::NodeId n : nn_.locations(chunk)) {
    if (cluster_.is_failed(n)) continue;  // draining nodes still serve
    if (best == dfs::kInvalidNode || n < best) best = n;
  }
  return best;
}

dfs::NodeId FaultInjector::pick_target(dfs::ChunkId chunk) const {
  // Least loaded by (current replicas + pending inbound copies), smallest id
  // on ties — the deterministic reassignment-ordering rule of DESIGN.md §11.
  dfs::NodeId best = dfs::kInvalidNode;
  std::size_t best_load = 0;
  for (dfs::NodeId n = 0; n < cluster_.node_count(); ++n) {
    if (!node_usable(n)) continue;
    if (nn_.chunk(chunk).has_replica_on(n)) continue;
    const std::size_t load = nn_.chunks_on_node(n).size() + inbound_[n];
    if (best == dfs::kInvalidNode || load < best_load) {
      best = n;
      best_load = load;
    }
  }
  return best;
}

void FaultInjector::on_declared(dfs::NodeId node, Seconds now) {
  emit(now, ProbeKind::kDetection, node);
  if (membership_) membership_(now, MembershipEvent::kNodeDead, node);

  // Crash recovery: drop the dead node's replicas from the metadata, then
  // re-create each one with a real copy. Ascending chunk order, bounded
  // concurrency — deterministic regardless of detection interleaving.
  const std::vector<dfs::ChunkId> affected = nn_.detach_node(node);
  const auto drive = open_drive(node, MembershipEvent::kRecoveryComplete);
  for (dfs::ChunkId c : affected) {
    const dfs::NodeId src = pick_source(c);
    if (src == dfs::kInvalidNode) {
      ++stats_.lost_chunks;  // r = 1 crash: the chunk is gone
      continue;
    }
    const dfs::NodeId dst = pick_target(c);
    if (dst == dfs::kInvalidNode) {
      ++stats_.lost_chunks;  // nowhere to put it (tiny or dying cluster)
      continue;
    }
    enqueue({c, src, dst, dfs::kInvalidNode, drive});
  }
  settle(now, drive);
  pump(now);
}

void FaultInjector::start_drain(Seconds now, dfs::NodeId node) {
  OPASS_REQUIRE(!cluster_.is_failed(node), "cannot drain a failed node");
  nn_.mark_decommissioned(node);
  std::vector<dfs::ChunkId> chunks = nn_.chunks_on_node(node);
  std::sort(chunks.begin(), chunks.end());
  const auto drive = open_drive(node, MembershipEvent::kDrainComplete);
  for (dfs::ChunkId c : chunks) {
    const dfs::NodeId dst = pick_target(c);
    if (dst == dfs::kInvalidNode) continue;  // nowhere to move it; keep serving
    // The draining node itself sources the copy and gives the replica up
    // only once the copy landed — safe at replication 1.
    enqueue({c, node, dst, node, drive});
  }
  settle(now, drive);
  pump(now);
}

void FaultInjector::start_rebalance(Seconds now, std::uint32_t tolerance) {
  // Plan the full move list against a scratch copy of the metadata (the
  // HDFS balancer's most- to least-loaded rule with deterministic ties),
  // then execute it as traffic. Metadata commits as each copy lands.
  std::vector<std::vector<dfs::ChunkId>> inv(cluster_.node_count());
  for (dfs::NodeId n = 0; n < cluster_.node_count(); ++n) {
    inv[n] = nn_.chunks_on_node(n);
    std::sort(inv[n].begin(), inv[n].end());
  }

  // As in NameNode::balance, a tolerance of 0 means 1: a spread of exactly
  // 1 cannot shrink, and every further pass would enqueue another copy.
  const std::size_t spread = std::max<std::uint32_t>(tolerance, 1);
  const auto drive = open_drive(dfs::kInvalidNode, MembershipEvent::kRebalanceComplete);
  for (;;) {
    dfs::NodeId hi = dfs::kInvalidNode, lo = dfs::kInvalidNode;
    for (dfs::NodeId n = 0; n < cluster_.node_count(); ++n) {
      if (!node_usable(n)) continue;
      if (hi == dfs::kInvalidNode || inv[n].size() > inv[hi].size()) hi = n;
      if (lo == dfs::kInvalidNode || inv[n].size() < inv[lo].size()) lo = n;
    }
    if (hi == dfs::kInvalidNode || lo == dfs::kInvalidNode) break;
    if (inv[hi].size() <= inv[lo].size() + spread) break;

    // Smallest movable chunk id on hi that lo lacks.
    auto& hi_inv = inv[hi];
    auto& lo_inv = inv[lo];
    const auto it = std::find_if(hi_inv.begin(), hi_inv.end(), [&](dfs::ChunkId c) {
      return !std::binary_search(lo_inv.begin(), lo_inv.end(), c);
    });
    if (it == hi_inv.end()) break;
    const dfs::ChunkId moved = *it;
    hi_inv.erase(it);
    lo_inv.insert(std::lower_bound(lo_inv.begin(), lo_inv.end(), moved), moved);
    enqueue({moved, hi, lo, hi, drive});
  }
  settle(now, drive);
  pump(now);
}

std::uint32_t FaultInjector::open_drive(dfs::NodeId node, MembershipEvent done_event) {
  // Sized by the first drive, not by arm(): a plan that never copies
  // allocates no counts.
  if (inbound_.empty()) inbound_.resize(cluster_.node_count());
  drives_.push_back({node, done_event, 1});
  return static_cast<std::uint32_t>(drives_.size() - 1);
}

void FaultInjector::enqueue(Copy copy) {
  ++drives_[copy.drive].pending;
  ++inbound_[copy.dst];
  queue_.push_back(copy);
}

void FaultInjector::pump(Seconds now) {
  while (active_copies_ < plan_.max_concurrent_copies && !queue_.empty()) {
    Copy copy = queue_.front();
    queue_.pop_front();

    // Re-validate at start time: metadata (or membership) may have moved
    // since the copy was planned.
    Verdict verdict = check(copy);
    if (verdict == Verdict::kRetarget) {
      if (const dfs::NodeId dst = pick_target(copy.chunk); dst != dfs::kInvalidNode) {
        --inbound_[copy.dst];
        ++inbound_[dst];
        copy.dst = dst;
        verdict = Verdict::kGo;
      }
    }
    if (verdict != Verdict::kGo) {
      finish_copy(now, copy, /*landed=*/false);
      continue;
    }
    if (cluster_.is_failed(copy.src) || !nn_.chunk(copy.chunk).has_replica_on(copy.src)) {
      const dfs::NodeId src = pick_source(copy.chunk);
      if (src == dfs::kInvalidNode) {
        ++stats_.lost_chunks;
        finish_copy(now, copy, /*landed=*/false);
        continue;
      }
      ++stats_.aborted_copies;
      copy.src = src;
    }

    ++active_copies_;
    cluster_.replicate(
        copy.src, copy.dst, nn_.chunk(copy.chunk).size,
        [this, copy](Seconds end) {
          --active_copies_;
          const Verdict landing = check(copy);
          if (landing == Verdict::kRetarget)
            queue_.push_front(copy);
          else
            finish_copy(end, copy, /*landed=*/landing == Verdict::kGo);
          pump(end);
        },
        [this, copy](Seconds end) {
          // Source died mid-copy: retry from another replica holder.
          --active_copies_;
          ++stats_.aborted_copies;
          queue_.push_front(copy);
          pump(end);
        });
  }
}

FaultInjector::Verdict FaultInjector::check(const Copy& copy) const {
  // A recovery copy is needed while its chunk is short of r replicas, a move
  // while its source still holds the chunk.
  const dfs::ChunkInfo& info = nn_.chunk(copy.chunk);
  const bool needed = copy.remove_from == dfs::kInvalidNode
                          ? info.replicas.size() < nn_.replication()
                          : info.has_replica_on(copy.remove_from);
  if (!needed) return Verdict::kDrop;
  if (node_usable(copy.dst) && !info.has_replica_on(copy.dst)) return Verdict::kGo;
  // A rebalance move is best effort: dropped, not re-targeted.
  const MembershipEvent drive = drives_[copy.drive].done_event;
  return drive == MembershipEvent::kRebalanceComplete ? Verdict::kDrop : Verdict::kRetarget;
}

void FaultInjector::finish_copy(Seconds now, const Copy& copy, bool landed) {
  --inbound_[copy.dst];
  if (landed) {
    const Bytes bytes = nn_.chunk(copy.chunk).size;
    nn_.register_replica(copy.chunk, copy.dst);
    if (copy.remove_from != dfs::kInvalidNode)
      nn_.unregister_replica(copy.chunk, copy.remove_from);
    ++stats_.replicas_copied;
    stats_.rereplicated_bytes += bytes;
    emit(now, ProbeKind::kCopy, copy.chunk, copy.dst, bytes);
  } else {
    ++stats_.aborted_copies;
  }
  settle(now, copy.drive);
}

void FaultInjector::settle(Seconds now, std::uint32_t index) {
  Drive& drive = drives_[index];
  OPASS_CHECK(drive.pending > 0, "recovery drive copy count underflow");
  if (--drive.pending > 0) return;
  if (drive.done_event == MembershipEvent::kRecoveryComplete) ++stats_.recoveries;
  emit(now, ProbeKind::kRecovered, drive.node);
  if (membership_) membership_(now, drive.done_event, drive.node);
}

}  // namespace opass::sim
