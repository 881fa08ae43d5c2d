// Scripted fault/churn plans: the JSON parser's field-naming errors, the
// injector's deterministic recovery drives, and the heartbeat-boundary
// timing edge cases (DESIGN.md §11).
#include "sim/fault_plan.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "workload/dataset.hpp"

namespace opass::sim {
namespace {

// ---------------------------------------------------------------- parsing

std::string parse_error(const std::string& text) {
  try {
    parse_fault_plan(text);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return {};
}

bool mentions(const std::string& msg, const std::string& needle) {
  return msg.find(needle) != std::string::npos;
}

TEST(FaultPlanParse, FullPlanRoundTrips) {
  const auto plan = parse_fault_plan(
      R"({"horizon": 90.0, "max_concurrent_copies": 2, "events": [
           {"at": 3.0,  "kind": "crash", "node": 17},
           {"at": 5.0,  "kind": "slow", "node": 4, "factor": 0.25},
           {"at": 40.0, "kind": "restore", "node": 4},
           {"at": 10.0, "kind": "join", "rack": 1},
           {"at": 12.0, "kind": "rebalance", "tolerance": 2},
           {"at": 20.0, "kind": "decommission", "node": 9}]})");
  EXPECT_DOUBLE_EQ(plan.horizon, 90.0);
  EXPECT_EQ(plan.max_concurrent_copies, 2u);
  ASSERT_EQ(plan.events.size(), 6u);
  EXPECT_EQ(plan.events[0].kind, FaultKind::kCrash);
  EXPECT_EQ(plan.events[0].node, 17u);
  EXPECT_EQ(plan.events[1].kind, FaultKind::kSlow);
  EXPECT_DOUBLE_EQ(plan.events[1].factor, 0.25);
  EXPECT_EQ(plan.events[3].kind, FaultKind::kJoin);
  EXPECT_EQ(plan.events[3].rack, 1u);
  EXPECT_EQ(plan.events[4].kind, FaultKind::kRebalance);
  EXPECT_EQ(plan.events[4].tolerance, 2u);
  EXPECT_EQ(plan.events[5].kind, FaultKind::kDecommission);
}

TEST(FaultPlanParse, KindNamesRoundTrip) {
  // Every kind's fault_kind_name is the spelling the parser reads back.
  const FaultKind kinds[] = {FaultKind::kCrash,        FaultKind::kSlow,
                             FaultKind::kRestore,      FaultKind::kJoin,
                             FaultKind::kDecommission, FaultKind::kRebalance};
  std::string json = R"({"events": [)";
  for (const FaultKind k : kinds) {
    if (k != kinds[0]) json += ", ";
    json += R"({"at": 1.0, "node": 1, "factor": 0.5, "kind": ")";
    json += fault_kind_name(k);
    json += "\"}";
  }
  json += "]}";
  const auto plan = parse_fault_plan(json);
  ASSERT_EQ(plan.events.size(), std::size(kinds));
  for (std::size_t i = 0; i < std::size(kinds); ++i) EXPECT_EQ(plan.events[i].kind, kinds[i]);
}

// Every malformed-plan error names the offending field; an unknown name
// also lists the accepted set.
TEST(FaultPlanParse, ErrorsNameTheOffendingField) {
  EXPECT_TRUE(mentions(parse_error(R"([1, 2])"),
                       "expected a top-level JSON object"));
  EXPECT_TRUE(mentions(parse_error(R"({"bogus": 1})"),
                       "unknown field \"bogus\" (horizon | max_concurrent_copies | events)"));
  EXPECT_TRUE(mentions(parse_error(R"({"horizon": -5})"),
                       "field \"horizon\" must be positive"));
  EXPECT_TRUE(mentions(parse_error(R"({"max_concurrent_copies": 0})"),
                       "field \"max_concurrent_copies\" must be >= 1"));
  EXPECT_TRUE(mentions(parse_error(R"({"events": [{"kind": "crash", "node": 1}]})"),
                       "fault plan event 0: missing field \"at\""));
  EXPECT_TRUE(mentions(parse_error(R"({"events": [{"at": 1.0, "node": 1}]})"),
                       "fault plan event 0: missing field \"kind\""));
  const std::string melt = parse_error(R"({"events": [{"at": 1.0, "kind": "melt"}]})");
  EXPECT_TRUE(mentions(melt, "fault plan event 0: unknown kind \"melt\""));
  EXPECT_TRUE(mentions(melt, "(crash | slow | restore | join | decommission | rebalance)"));
  EXPECT_TRUE(
      mentions(parse_error(R"({"events": [{"at": 1.0, "kind": "crash", "frob": 2}]})"),
               "unknown field \"frob\" (at | kind | node | factor | rack | tolerance)"));
  EXPECT_TRUE(mentions(parse_error(R"({"events":[{"at":-1.0,"kind":"crash","node":1}]})"),
                       "field \"at\" must be >= 0"));
  EXPECT_TRUE(mentions(parse_error(R"({"events": [{"at": 1.0, "kind": "crash"}]})"),
                       "missing field \"node\" (required for kind \"crash\")"));
  EXPECT_TRUE(mentions(parse_error(R"({"events": [{"at": 1.0, "kind": "slow", "node": 1}]})"),
                       "missing field \"factor\" (required for kind \"slow\")"));
  EXPECT_TRUE(mentions(
      parse_error(R"({"events": [{"at": 1.0, "kind": "slow", "node": 1, "factor": 1.5}]})"),
      "field \"factor\" must be in (0, 1]"));
  EXPECT_TRUE(mentions(
      parse_error(R"({"horizon":10.0,"events":[{"at":50.0,"kind":"crash","node":1}]})"),
      "lies beyond the horizon"));
  EXPECT_TRUE(mentions(parse_error("{} trailing"),
                       "trailing characters after the top-level object"));
}

TEST(FaultPlanParse, MissingFileNamesThePath) {
  try {
    load_fault_plan("/nonexistent/plan.json");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_TRUE(mentions(e.what(), "cannot read fault plan file: /nonexistent/plan.json"));
  }
}

// --------------------------------------------------------------- injector

FaultEvent make_event(Seconds at, FaultKind kind, dfs::NodeId node) {
  FaultEvent ev;
  ev.at = at;
  ev.kind = kind;
  ev.node = node;
  return ev;
}

/// Probe that flattens the fault lifecycle into a comparable trace.
struct RecordingProbe final : Probe {
  explicit RecordingProbe(const FaultPlan& fault_plan) : plan(fault_plan) {}

  const FaultPlan& plan;
  std::vector<std::string> lines;

  void on_event(const ProbeEvent& event) override {
    const std::string at = " @" + std::to_string(event.at);
    switch (event.kind) {
      case ProbeKind::kFault:
        lines.push_back("fault " +
                        std::string(fault_kind_name(plan.events.at(event.id).kind)) + at);
        return;
      case ProbeKind::kDetection:
        lines.push_back("detect " + std::to_string(event.id) + at);
        return;
      case ProbeKind::kCopy:
        lines.push_back("copy " + std::to_string(event.id) + " ->" +
                        std::to_string(event.count) + " " + std::to_string(event.bytes) + at);
        return;
      case ProbeKind::kRecovered:
        lines.push_back("done " + std::to_string(event.id) + at);
        return;
      default:
        lines.push_back("unexpected event" + at);
        return;
    }
  }
};

struct InjectorFixture : ::testing::Test {
  static constexpr std::uint32_t kNodes = 8;

  void build(std::uint32_t replication, std::uint32_t chunks) {
    nn = std::make_unique<dfs::NameNode>(dfs::Topology::single_rack(kNodes), replication,
                                         kDefaultChunkSize);
    cluster = std::make_unique<Cluster>(kNodes);
    rng = std::make_unique<Rng>(3);
    dfs::RandomPlacement policy;
    workload::make_single_data_workload(*nn, chunks, policy, *rng);
  }

  /// Arm `plan` and run the (otherwise idle) cluster to completion.
  FaultStats run_plan(const FaultPlan& plan, Probe* probe = nullptr) {
    HeartbeatMonitor monitor(*cluster, *nn, /*namenode_host=*/0, *rng);
    FaultInjector injector(*cluster, *nn, monitor, plan);
    if (probe != nullptr) injector.set_probe(probe);
    injector.arm();
    monitor.start(plan.horizon);
    cluster->run();
    return injector.stats();
  }

  /// arm()'s error for `plan` on a fresh 8-node cluster, or "" if it arms.
  std::string arm_error(const FaultPlan& plan) {
    build(3, 40);
    HeartbeatMonitor monitor(*cluster, *nn, /*namenode_host=*/0, *rng);
    FaultInjector injector(*cluster, *nn, monitor, plan);
    try {
      injector.arm();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return {};
  }

  std::unique_ptr<dfs::NameNode> nn;
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<Rng> rng;
};

TEST_F(InjectorFixture, CrashReReplicatesEveryLostChunk) {
  build(/*replication=*/3, /*chunks=*/32);
  const auto lost = nn->chunks_on_node(5);
  ASSERT_FALSE(lost.empty());
  Bytes lost_bytes = 0;
  for (const dfs::ChunkId c : lost) lost_bytes += nn->chunk(c).size;

  FaultPlan plan;
  plan.horizon = 120.0;
  plan.events.push_back(make_event(1.0, FaultKind::kCrash, 5));
  const auto stats = run_plan(plan);

  EXPECT_EQ(stats.crashes, 1u);
  EXPECT_EQ(stats.recoveries, 1u);
  EXPECT_EQ(stats.lost_chunks, 0u);
  EXPECT_EQ(stats.replicas_copied, lost.size());
  EXPECT_EQ(stats.rereplicated_bytes, lost_bytes);
  // Full replication restored, nothing left on the dead node.
  EXPECT_TRUE(nn->chunks_on_node(5).empty());
  nn->check_invariants();
}

TEST_F(InjectorFixture, CrashAtReplicationOneLosesChunks) {
  build(/*replication=*/1, /*chunks=*/32);
  const auto lost = nn->chunks_on_node(5);
  ASSERT_FALSE(lost.empty());

  FaultPlan plan;
  plan.events.push_back(make_event(1.0, FaultKind::kCrash, 5));
  const auto stats = run_plan(plan);

  EXPECT_EQ(stats.lost_chunks, lost.size());
  EXPECT_EQ(stats.replicas_copied, 0u);
  EXPECT_EQ(stats.recoveries, 1u);  // the (empty) drive still completes
}

TEST_F(InjectorFixture, DrainIsSafeAtReplicationOne) {
  build(/*replication=*/1, /*chunks=*/32);
  const auto held = nn->chunks_on_node(2);
  ASSERT_FALSE(held.empty());

  FaultPlan plan;
  plan.events.push_back(make_event(1.0, FaultKind::kDecommission, 2));
  const auto stats = run_plan(plan);

  EXPECT_EQ(stats.decommissions, 1u);
  EXPECT_EQ(stats.lost_chunks, 0u);
  EXPECT_EQ(stats.replicas_copied, held.size());
  EXPECT_TRUE(nn->chunks_on_node(2).empty());
  // Every chunk still has exactly one replica, elsewhere.
  for (dfs::ChunkId c = 0; c < nn->chunk_count(); ++c)
    EXPECT_EQ(nn->chunk(c).replicas.size(), 1u);
}

TEST_F(InjectorFixture, RebalanceLevelsWithinTolerance) {
  build(/*replication=*/2, /*chunks=*/48);
  FaultPlan plan;
  auto ev = make_event(1.0, FaultKind::kRebalance, dfs::kInvalidNode);
  ev.tolerance = 1;
  plan.events.push_back(ev);
  const auto stats = run_plan(plan);

  EXPECT_EQ(stats.rebalances, 1u);
  std::size_t lo = SIZE_MAX, hi = 0;
  for (dfs::NodeId n = 0; n < kNodes; ++n) {
    const auto held = nn->chunks_on_node(n).size();
    lo = std::min(lo, held);
    hi = std::max(hi, held);
  }
  EXPECT_LE(hi - lo, 1u);
  nn->check_invariants();
}

TEST_F(InjectorFixture, RebalanceToleranceZeroStopsWithinOneReplica) {
  // 49 two-replica chunks on 8 nodes: 98 replicas cannot level to a spread
  // of 0. Tolerance 0 has to stop at 1 instead of planning (and enqueueing a
  // copy for) one more swap forever.
  build(/*replication=*/2, /*chunks=*/49);
  FaultPlan plan;
  auto ev = make_event(1.0, FaultKind::kRebalance, dfs::kInvalidNode);
  ev.tolerance = 0;
  plan.events.push_back(ev);
  const auto stats = run_plan(plan);

  EXPECT_EQ(stats.rebalances, 1u);
  std::size_t lo = SIZE_MAX, hi = 0;
  for (dfs::NodeId n = 0; n < kNodes; ++n) {
    const auto held = nn->chunks_on_node(n).size();
    lo = std::min(lo, held);
    hi = std::max(hi, held);
  }
  EXPECT_EQ(hi - lo, 1u);
  nn->check_invariants();
}

TEST_F(InjectorFixture, JoinedNodeAbsorbsRebalancedReplicas) {
  build(/*replication=*/2, /*chunks=*/48);
  FaultPlan plan;
  plan.events.push_back(make_event(1.0, FaultKind::kJoin, dfs::kInvalidNode));
  auto ev = make_event(2.0, FaultKind::kRebalance, dfs::kInvalidNode);
  ev.tolerance = 1;
  plan.events.push_back(ev);
  const auto stats = run_plan(plan);

  EXPECT_EQ(stats.joins, 1u);
  EXPECT_EQ(stats.rebalances, 1u);
  // The empty joiner (node 8) caught up to within the tolerance.
  EXPECT_FALSE(nn->chunks_on_node(kNodes).empty());
}

// DESIGN.md §11 determinism rule: recovery draws no RNG, so two identical
// runs produce the same stats and the same event-by-event lifecycle.
TEST_F(InjectorFixture, CrashRecoveryReplaysIdentically) {
  FaultPlan plan;
  plan.events.push_back(make_event(1.0, FaultKind::kCrash, 5));

  build(3, 32);
  RecordingProbe first(plan);
  const auto stats1 = run_plan(plan, &first);

  build(3, 32);
  RecordingProbe second(plan);
  const auto stats2 = run_plan(plan, &second);

  EXPECT_EQ(stats1.replicas_copied, stats2.replicas_copied);
  EXPECT_EQ(stats1.rereplicated_bytes, stats2.rereplicated_bytes);
  EXPECT_EQ(stats1.recoveries, stats2.recoveries);
  EXPECT_EQ(first.lines, second.lines);
  ASSERT_FALSE(first.lines.empty());
  // The scripted crash comes first, and every landed copy is one event.
  EXPECT_EQ(first.lines.front(), "fault crash @1.000000");
  const auto copies =
      std::count_if(first.lines.begin(), first.lines.end(),
                    [](const std::string& line) { return line.rfind("copy ", 0) == 0; });
  EXPECT_EQ(static_cast<std::uint32_t>(copies), stats1.replicas_copied);
}

// ------------------------------------------- arm(): checks in firing order

FaultPlan plan_of(FaultEvent first, FaultEvent second) {
  FaultPlan plan;
  plan.events = {first, second};
  return plan;
}

TEST_F(InjectorFixture, ArmRejectsANodeThatOnlyALaterJoinAdds) {
  // Node 8 joins at 10 s, but the crash listed after the join fires at 5 s.
  const FaultEvent join = make_event(10.0, FaultKind::kJoin, dfs::kInvalidNode);
  const std::string msg = arm_error(plan_of(join, make_event(5.0, FaultKind::kCrash, kNodes)));
  EXPECT_TRUE(mentions(msg, "event 1 (crash of node 8) fires when 8 nodes exist")) << msg;
}

TEST_F(InjectorFixture, ArmAcceptsANodeThatAnEarlierFiringJoinAdds) {
  // Listed first but firing second: the crash sees the node the join added.
  const FaultEvent join = make_event(1.0, FaultKind::kJoin, dfs::kInvalidNode);
  const FaultPlan plan = plan_of(make_event(5.0, FaultKind::kCrash, kNodes), join);
  ASSERT_EQ(arm_error(plan), "");
  build(3, 40);
  const auto stats = run_plan(plan);
  EXPECT_EQ(stats.joins, 1u);
  EXPECT_EQ(stats.crashes, 1u);
  EXPECT_EQ(stats.recoveries, 1u);  // the joiner held nothing to re-replicate
  nn->check_invariants();
}

TEST_F(InjectorFixture, ArmRejectsCrashingADecommissionedNode) {
  const std::string msg = arm_error(plan_of(make_event(2.0, FaultKind::kDecommission, 5),
                                            make_event(4.0, FaultKind::kCrash, 5)));
  EXPECT_TRUE(mentions(msg, "event 1 (crash of node 5) fires after event 0")) << msg;
}

TEST_F(InjectorFixture, ArmRejectsDecommissioningACrashedNode) {
  const std::string msg = arm_error(plan_of(make_event(4.0, FaultKind::kDecommission, 5),
                                            make_event(2.0, FaultKind::kCrash, 5)));
  EXPECT_TRUE(mentions(msg, "event 0 (decommission of node 5) fires after event 1")) << msg;
}

TEST_F(InjectorFixture, ArmRejectsDecommissioningANodeTwice) {
  const std::string msg = arm_error(plan_of(make_event(2.0, FaultKind::kDecommission, 5),
                                            make_event(3.0, FaultKind::kDecommission, 5)));
  EXPECT_TRUE(mentions(msg, "event 1 (decommission of node 5) fires after event 0")) << msg;
}

TEST_F(InjectorFixture, ArmRejectsCrashingANodeTwice) {
  // Same time: the simulator fires them in plan order, so event 1 is second.
  const std::string msg = arm_error(plan_of(make_event(2.0, FaultKind::kCrash, 5),
                                            make_event(2.0, FaultKind::kCrash, 5)));
  EXPECT_TRUE(mentions(msg, "event 1 (crash of node 5) fires after event 0 (crash)")) << msg;
}

TEST_F(InjectorFixture, ArmRejectsAJoinOntoARackTheClusterDoesNotHave) {
  // The 8-node cluster is one rack; a join may not add a second.
  FaultEvent join = make_event(1.0, FaultKind::kJoin, dfs::kInvalidNode);
  join.rack = 7;
  const std::string msg = arm_error(plan_of(make_event(0.5, FaultKind::kCrash, 3), join));
  EXPECT_TRUE(mentions(msg, "event 1 (join on rack 7) names a rack the 1-rack cluster")) << msg;
}

TEST_F(InjectorFixture, ArmRejectsSlowingOrRestoringACrashedNode) {
  FaultEvent slow = make_event(2.0, FaultKind::kSlow, 5);
  slow.factor = 0.5;
  FaultPlan plan = plan_of(make_event(1.0, FaultKind::kCrash, 5), slow);
  plan.events.push_back(make_event(3.0, FaultKind::kRestore, 5));
  std::string msg = arm_error(plan);
  EXPECT_TRUE(mentions(msg, "event 1 (slow of node 5) fires after event 0 (crash)")) << msg;
  // Listed first, firing last: the restore still comes after the crash.
  msg = arm_error(plan_of(make_event(3.0, FaultKind::kRestore, 5),
                          make_event(1.0, FaultKind::kCrash, 5)));
  EXPECT_TRUE(mentions(msg, "event 0 (restore of node 5) fires after event 1 (crash)")) << msg;
}

TEST_F(InjectorFixture, ArmAcceptsSlowingAndRestoringADrainingNode) {
  // A draining node still sources its own copies, so its speed matters.
  FaultEvent slow = make_event(1.5, FaultKind::kSlow, 5);
  slow.factor = 0.5;
  FaultPlan plan = plan_of(make_event(1.0, FaultKind::kDecommission, 5), slow);
  plan.events.push_back(make_event(3.0, FaultKind::kRestore, 5));
  ASSERT_EQ(arm_error(plan), "");
  build(3, 40);
  const auto stats = run_plan(plan);
  EXPECT_EQ(stats.decommissions, 1u);
  EXPECT_EQ(stats.slowdowns, 1u);
  EXPECT_EQ(stats.restores, 1u);
  EXPECT_TRUE(nn->chunks_on_node(5).empty());
  nn->check_invariants();
}

// --------------------------------------------- overlapping drives (property)

/// A random plan in which recovery, rebalance and drain drives overlap: 8-12
/// nodes; one crash in [0, 20) s; each with probability 1/2 a second crash
/// in [0, 30), a join in [0, 20) and a rebalance in [0, 30); with
/// probability 2/5 a decommission in [0, 30); up to 8 copies at once. Node
/// 0 hosts the NameNode and is never faulted.
FaultPlan overlapping_plan(Rng& rng, std::uint32_t nodes) {
  std::vector<dfs::NodeId> victims;
  for (dfs::NodeId n = 1; n < nodes; ++n) victims.push_back(n);
  rng.shuffle(victims);
  const auto at = [&](Seconds limit) { return limit * rng.uniform01(); };
  FaultPlan plan;
  plan.max_concurrent_copies = 1u << rng.uniform(4);
  plan.events.push_back(make_event(at(20), FaultKind::kCrash, victims[0]));
  if (rng.uniform01() < 0.5)
    plan.events.push_back(make_event(at(30), FaultKind::kCrash, victims[1]));
  if (rng.uniform01() < 0.5)
    plan.events.push_back(make_event(at(20), FaultKind::kJoin, dfs::kInvalidNode));
  if (rng.uniform01() < 0.5)
    plan.events.push_back(make_event(at(30), FaultKind::kRebalance, dfs::kInvalidNode));
  if (rng.uniform01() < 0.4)
    plan.events.push_back(make_event(at(30), FaultKind::kDecommission, victims[2]));
  return plan;
}

// DESIGN.md §11 rule 4: whatever overlaps, recovery ends with every chunk at
// exactly r replicas, all on nodes that are neither failed nor
// decommissioned, and every crash's drive completes.
TEST(FaultPlanProperty, OverlappingDrivesEndAtFullReplication) {
  constexpr std::uint32_t kPlans = 500, kReplication = 3;
  Rng gen(32);
  std::vector<std::string> failures;
  for (std::uint32_t i = 0; i < kPlans; ++i) {
    const auto nodes = static_cast<std::uint32_t>(8 + gen.uniform(5));
    const FaultPlan plan = overlapping_plan(gen, nodes);
    dfs::NameNode nn(dfs::Topology::single_rack(nodes), kReplication, kDefaultChunkSize);
    Cluster cluster(nodes);
    Rng rng(i);
    dfs::RandomPlacement policy;
    for (int f = 0; f < 40; ++f) nn.create_file("f", kDefaultChunkSize, policy, rng);
    HeartbeatMonitor monitor(cluster, nn, /*namenode_host=*/0, rng);
    FaultInjector injector(cluster, nn, monitor, plan);
    const std::string where = "plan " + std::to_string(i) + ": ";
    try {
      injector.arm();
      monitor.start(plan.horizon);
      cluster.run();
    } catch (const std::exception& e) {
      failures.push_back(where + "threw " + e.what());
      continue;
    }
    if (injector.stats().recoveries != injector.stats().crashes)
      failures.push_back(where + "a crash never finished recovering");
    for (dfs::ChunkId c = 0; c < nn.chunk_count(); ++c) {
      const auto& replicas = nn.locations(c);
      const bool placed = std::all_of(replicas.begin(), replicas.end(), [&](dfs::NodeId n) {
        return !cluster.is_failed(n) && !nn.is_decommissioned(n);
      });
      if (replicas.size() != kReplication || !placed) {
        failures.push_back(where + "chunk " + std::to_string(c) + " ends with " +
                           std::to_string(replicas.size()) + " replicas" +
                           (placed ? "" : ", some on a failed or decommissioned node"));
        break;
      }
    }
  }
  EXPECT_TRUE(failures.empty()) << failures.size() << " of " << kPlans
                                << " plans failed; first: "
                                << (failures.empty() ? "" : failures.front());
}

// ------------------------------------------------- heartbeat edge timing

TEST_F(InjectorFixture, CrashExactlyOnBeatBoundaryStillSendsThatBeat) {
  build(3, 32);
  HeartbeatParams p;
  p.interval = 2.0;
  p.miss_threshold = 3;
  HeartbeatMonitor monitor(*cluster, *nn, 0, *rng, p);
  FaultPlan plan;
  plan.horizon = 60.0;
  // t=4.0 is a beat boundary: the node emits that beat, then dies.
  plan.events.push_back(make_event(4.0, FaultKind::kCrash, 5));
  FaultInjector injector(*cluster, *nn, monitor, plan);
  injector.arm();
  monitor.start(plan.horizon);
  cluster->run();

  ASSERT_TRUE(monitor.declared_dead(5));
  // The boundary beat resets the window, so detection measures from the
  // crash time: its arrival just after 4 s plus the 8 s window is first
  // exceeded at the 14 s check. Without that beat the window would run from
  // the 2 s beat and end at the 12 s check.
  EXPECT_EQ(monitor.detection_time(5), 14.0);
}

TEST_F(InjectorFixture, SlowNodeKeepsBeatingAndIsNeverDeclared) {
  build(3, 32);
  HeartbeatMonitor monitor(*cluster, *nn, 0, *rng);
  FaultPlan plan;
  plan.horizon = 60.0;
  auto ev = make_event(2.0, FaultKind::kSlow, 5);
  ev.factor = 0.05;  // deep straggler, but alive: beats still flow
  plan.events.push_back(ev);
  FaultInjector injector(*cluster, *nn, monitor, plan);
  injector.arm();
  monitor.start(plan.horizon);
  cluster->run();

  EXPECT_FALSE(monitor.declared_dead(5));
  EXPECT_EQ(injector.stats().slowdowns, 1u);
  EXPECT_EQ(injector.stats().replicas_copied, 0u);
}

}  // namespace
}  // namespace opass::sim
