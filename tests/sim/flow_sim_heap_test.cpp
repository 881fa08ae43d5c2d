// Edge cases for the indexed completion heap, the one-flow re-level and the
// reusable flow-slot pool (DESIGN.md "Simulator scalability"). Each heap test
// forces one pattern on a flow's single queued estimate: its flow sped up,
// slowed down, was cancelled, was requeued a hair early, or never had bytes
// to move. Completion times stay exact, callbacks fire exactly once, and
// eta_stale_pops() counts exactly the estimates a rate change superseded or a
// cancel dropped. A run stopped by run_until() and resumed fires what one
// run() fires. One-flow components read their bindings back through
// attribution: a resource crossed twice, a cap equal to the share, tied
// shares. The exact values were recorded on the lazily invalidated heap and
// the water-fill this engine replaced.
#include "sim/flow_sim.hpp"

#include <gtest/gtest.h>

#include <tuple>
#include <utility>
#include <vector>

namespace opass::sim {
namespace {

TEST(FlowSimEtaHeap, RateDropDefersCompletion) {
  // A starts alone at 100 B/s (ETA queued for t=5). At t=1 a competitor
  // joins, halving A's rate; the queued ETA is stale and must not complete A
  // at t=5 (it still has 400 - 200 = 200 bytes left there).
  FlowSimulator sim;
  const auto r = sim.add_resource(100.0);
  Seconds da = -1, db = -1;
  sim.start_flow({r}, 500, [&](Seconds t) { da = t; });
  sim.after(1.0, [&](Seconds) { sim.start_flow({r}, 500, [&](Seconds t) { db = t; }); });
  sim.run();
  // A: 100 bytes in [0,1], then 50 B/s with 400 left => done at 9.
  // B: 50 B/s over [1,9] = 400 bytes, then 100 B/s with 100 left => 10.
  EXPECT_DOUBLE_EQ(da, 9.0);
  EXPECT_DOUBLE_EQ(db, 10.0);
  // Two superseded estimates: A's t=5 when B joins, and B's t=11 when A's
  // completion doubles B's rate. B's first rate replaces none.
  EXPECT_EQ(sim.eta_stale_pops(), 2u);
}

TEST(FlowSimEtaHeap, RateRiseCompletesEarlierThanQueuedEta) {
  // A shares with B (ETA queued for t=10). B is cancelled at t=1, doubling
  // A's rate; A must finish at 1 + 450/100 = 5.5, not at the stale t=10.
  FlowSimulator sim;
  const auto r = sim.add_resource(100.0);
  Seconds da = -1;
  bool db_fired = false;
  sim.start_flow({r}, 500, [&](Seconds t) { da = t; });
  const FlowId b = sim.start_flow({r}, 500, [&](Seconds) { db_fired = true; });
  sim.after(1.0, [&](Seconds) { sim.cancel_flow(b); });
  sim.run();
  EXPECT_DOUBLE_EQ(da, 5.5);
  EXPECT_FALSE(db_fired);
}

TEST(FlowSimEtaHeap, CancelWhileQueuedNeverFires) {
  // Cancel a flow whose ETA is already in the heap; the entry must be
  // discarded as stale, the callback must never fire, and the resource must
  // be released immediately (the survivor speeds up).
  FlowSimulator sim;
  const auto r = sim.add_resource(100.0);
  Seconds da = -1;
  bool cancelled_fired = false;
  sim.start_flow({r}, 500, [&](Seconds t) { da = t; });
  const FlowId doomed = sim.start_flow({r}, 500, [&](Seconds) { cancelled_fired = true; });
  sim.after(2.0, [&](Seconds) {
    EXPECT_EQ(sim.active_flows(), 2u);
    sim.cancel_flow(doomed);
    EXPECT_EQ(sim.active_flows(), 1u);
    sim.cancel_flow(doomed);  // idempotent
    EXPECT_EQ(sim.active_flows(), 1u);
  });
  sim.run();
  EXPECT_FALSE(cancelled_fired);
  // A: 100 bytes by t=2, then 100 B/s with 400 left => done at 6.
  EXPECT_DOUBLE_EQ(da, 6.0);
  EXPECT_EQ(sim.active_flows(), 0u);
  // The cancel drops the doomed flow's estimate and supersedes A's t=10.
  EXPECT_EQ(sim.eta_stale_pops(), 2u);
}

TEST(FlowSimEtaHeap, ZeroByteFlowCompletesImmediately) {
  FlowSimulator sim;
  const auto r = sim.add_resource(100.0);
  Seconds done = -1;
  sim.after(3.0, [&](Seconds) {
    sim.start_flow({r}, 0, [&](Seconds t) { done = t; });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(done, 3.0);
}

TEST(FlowSimEtaHeap, ZeroByteCompletionOrderedBeforeLaterArrivals) {
  // A zero-byte flow started at t=0 completes at t=0, before any positive
  // flow; its callback may itself start flows.
  FlowSimulator sim;
  const auto r = sim.add_resource(100.0);
  std::vector<int> order;
  Seconds chained = -1;
  sim.start_flow({r}, 0, [&](Seconds t) {
    order.push_back(0);
    EXPECT_DOUBLE_EQ(t, 0.0);
    sim.start_flow({r}, 200, [&](Seconds u) { chained = u; });
  });
  sim.start_flow({r}, 100, [&](Seconds) { order.push_back(1); });
  sim.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 1);
  // Chained (200 B) and the 100 B flow share 50/50; the short one ends at
  // t=2, the chained one at 2 + 100/100 = 3.
  EXPECT_DOUBLE_EQ(chained, 3.0);
}

TEST(FlowSimEtaHeap, SimultaneousCompletionsFireInStartOrder) {
  FlowSimulator sim;
  const auto r1 = sim.add_resource(100.0);
  const auto r2 = sim.add_resource(100.0);
  std::vector<int> order;
  sim.start_flow({r1}, 500, [&](Seconds) { order.push_back(0); });
  sim.start_flow({r2}, 500, [&](Seconds) { order.push_back(1); });
  sim.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 1);
}

TEST(FlowSimSlotPool, SequentialFlowsReuseOneSlot) {
  // 100 flows run strictly one-after-another: the pool must never grow past
  // one slot, and peak_active_flows stays 1.
  FlowSimulator sim;
  const auto r = sim.add_resource(100.0);
  int completions = 0;
  std::function<void(Seconds)> chain = [&](Seconds) {
    if (++completions < 100) sim.start_flow({r}, 100, chain);
  };
  sim.start_flow({r}, 100, chain);
  sim.run();
  EXPECT_EQ(completions, 100);
  EXPECT_EQ(sim.flow_slot_count(), 1u);
  EXPECT_EQ(sim.peak_active_flows(), 1u);
}

TEST(FlowSimSlotPool, SlotCountBoundedByPeakConcurrency) {
  // Waves of 8 concurrent flows, 5 waves: 40 flows total, but at most 8 live
  // at once => exactly 8 slots ever allocated.
  FlowSimulator sim;
  const auto r = sim.add_resource(800.0);
  int completions = 0;
  for (int wave = 0; wave < 5; ++wave) {
    sim.after(wave * 10.0, [&](Seconds) {
      for (int i = 0; i < 8; ++i) sim.start_flow({r}, 100, [&](Seconds) { ++completions; });
    });
  }
  sim.run();
  EXPECT_EQ(completions, 40);
  EXPECT_EQ(sim.flow_slot_count(), 8u);
  EXPECT_EQ(sim.peak_active_flows(), 8u);
}

TEST(FlowSimSlotPool, StaleHandleToReusedSlotIsInert) {
  // Flow A completes and its slot is reused by flow B. A's old FlowId must
  // report inactive and cancel_flow(A) must not disturb B.
  FlowSimulator sim;
  const auto r = sim.add_resource(100.0);
  Seconds db = -1;
  const FlowId a = sim.start_flow({r}, 100, [](Seconds) {});
  sim.after(5.0, [&](Seconds) {
    EXPECT_EQ(sim.active_flows(), 0u);  // A completed
    const FlowId b = sim.start_flow({r}, 100, [&](Seconds t) { db = t; });
    EXPECT_EQ(static_cast<std::uint32_t>(b), static_cast<std::uint32_t>(a));  // slot reused
    EXPECT_NE(b, a);                                                          // tag differs
    sim.cancel_flow(a);  // stale: must not cancel b
    EXPECT_EQ(sim.active_flows(), 1u);
  });
  sim.run();
  EXPECT_DOUBLE_EQ(db, 6.0);
}

TEST(FlowSimSlotPool, CancelReleasesSlotForReuse) {
  FlowSimulator sim;
  const auto r = sim.add_resource(100.0);
  const FlowId a = sim.start_flow({r}, 1e9, [](Seconds) {});
  sim.after(1.0, [&](Seconds) {
    sim.cancel_flow(a);
    sim.start_flow({r}, 100, [](Seconds) {});
  });
  sim.run();
  EXPECT_EQ(sim.flow_slot_count(), 1u);
}

TEST(FlowSimSlotPool, ObservabilityCountersAdvance) {
  FlowSimulator sim;
  const auto r = sim.add_resource(100.0);
  sim.start_flow({r}, 100, [](Seconds) {});
  sim.start_flow({r}, 100, [](Seconds) {});
  sim.run();
  EXPECT_GE(sim.rate_recomputes(), 1u);
  EXPECT_GE(sim.rate_recompute_touched_flows(), 2u);
  EXPECT_GE(sim.max_relevel_component(), 2u);
}

/// (rate_recomputes, touched flows, largest re-leveled component, stale ETA
/// pops) after the simulator drains.
using Counters = std::tuple<std::uint64_t, std::uint64_t, std::uint32_t, std::uint64_t>;

Counters counters(const FlowSimulator& sim) {
  return {sim.rate_recomputes(), sim.rate_recompute_touched_flows(),
          sim.max_relevel_component(), sim.eta_stale_pops()};
}

TEST(FlowSimCounters, MergingComponentsCountExactly) {
  // Flows over r3 also cross r2, so r2's and r3's components merge each time
  // such a flow joins and split when it leaves. The engine counters are part
  // of the deterministic surface (they feed the metrics export), so they are
  // pinned exactly.
  FlowSimulator sim;
  const auto r1 = sim.add_resource(100.0);
  const auto r2 = sim.add_resource(80.0);
  const auto r3 = sim.add_resource(60.0);
  for (int i = 0; i < 9; ++i) {
    const FlowPath path =
        i % 3 == 0 ? FlowPath{r1} : (i % 3 == 1 ? FlowPath{r2} : FlowPath{r3, r2});
    sim.after(0.1 * i, [&sim, path](Seconds) { sim.start_flow(path, 150, [](Seconds) {}); });
  }
  sim.run();
  EXPECT_EQ(counters(sim), (Counters{18, 45, 6, 36}));
}

TEST(FlowSimCounters, CrossGroupFlowsMergeComponentsMidRun) {
  // Eight disjoint three-resource groups with staggered, partly capped flows;
  // at t = 0.6 one flow per group spans it and its neighbour, chaining every
  // group into one component until those flows drain.
  FlowSimulator sim;
  std::vector<std::vector<ResourceId>> groups(8);
  for (auto& group : groups)
    for (std::uint32_t r = 0; r < 3; ++r)
      group.push_back(sim.add_resource(50.0 + 10.0 * r, r == 0 ? 0.05 : 0.0));
  for (std::uint32_t g = 0; g < groups.size(); ++g) {
    for (std::uint32_t f = 0; f < 12; ++f) {
      FlowPath path{groups[g][f % 3]};
      if (f % 3 == 0) path.push_back(groups[g][(f + 1) % 3]);
      const Bytes bytes = 200 + 37 * (f % 5);
      const BytesPerSec cap = (f % 4 == 0) ? 18.0 : 0.0;
      sim.at(0.25 * static_cast<double>(f % 7), [&sim, path, bytes, cap](Seconds) {
        sim.start_flow(path, bytes, [](Seconds) {}, cap);
      });
    }
    const FlowPath bridge{groups[g][0], groups[(g + 1) % groups.size()][0]};
    sim.at(0.6, [&sim, bridge](Seconds) { sim.start_flow(bridge, 333, [](Seconds) {}); });
  }
  sim.run();
  EXPECT_EQ(counters(sim), (Counters{21, 720, 88, 384}));
}

// ------------------------------------------- stale estimates, counted exactly

TEST(FlowSimEtaHeap, CancelWhileQueuedCountsOneDroppedEstimate) {
  // A and B sit on their own resources, so cancelling B at t=1 changes no
  // other rate: B's queued estimate is the one estimate dropped.
  FlowSimulator sim;
  const auto r1 = sim.add_resource(100.0);
  const auto r2 = sim.add_resource(100.0);
  Seconds da = -1;
  sim.start_flow({r1}, 500, [&](Seconds t) { da = t; });
  const FlowId b = sim.start_flow({r2}, 500, [](Seconds) { FAIL() << "cancelled flow fired"; });
  sim.after(1.0, [&](Seconds) { sim.cancel_flow(b); });
  sim.run();
  EXPECT_EQ(da, 5.0);
  EXPECT_EQ(sim.eta_stale_pops(), 1u);
}

TEST(FlowSimEtaHeap, NotQuiteDoneRequeueCountsNothing) {
  // A moves 1e9 B at 1e9 B/s, estimate t=1. A no-op timer 0.9 ns earlier
  // brings the estimate inside the time slack while 0.9 B are still left, so
  // A is taken off the heap and requeued at a fresh estimate, which
  // supersedes nothing.
  constexpr Seconds kTimer = 1.0 - 0.9e-9;
  {
    FlowSimulator sim;
    const auto r = sim.add_resource(1e9);
    Seconds da = -1;
    sim.start_flow({r}, 1'000'000'000, [&](Seconds t) { da = t; });
    sim.at(kTimer, [](Seconds) {});
    sim.run();
    EXPECT_EQ(da, 1.0);
    EXPECT_EQ(sim.eta_stale_pops(), 0u);
  }
  // The same requeue, but the timer starts B on A's resource: the re-level
  // right after it supersedes A's requeued estimate (1), and A's completion
  // doubles B's rate (2).
  {
    FlowSimulator sim;
    const auto r = sim.add_resource(1e9);
    Seconds da = -1, db = -1;
    sim.start_flow({r}, 1'000'000'000, [&](Seconds t) { da = t; });
    sim.at(kTimer, [&](Seconds) {
      sim.start_flow({r}, 1'000'000'000, [&](Seconds t) { db = t; });
    });
    sim.run();
    EXPECT_EQ(da, 1.0000000009);
    EXPECT_EQ(db, 2.0);
    EXPECT_EQ(sim.eta_stale_pops(), 2u);
  }
}

// ------------------------------------------------------- stop and resume

/// Every completion and timer as (label, time), in firing order.
using EventLog = std::vector<std::pair<int, Seconds>>;

/// Staggered, partly capped flows on three resources with a cancel, a
/// capacity change and chained restarts. The flow labelled `stop_at` sets
/// `stop` when it completes (-1: never).
void contended_scenario(FlowSimulator& sim, EventLog& log, bool& stop, int stop_at) {
  const auto r0 = sim.add_resource(100.0, 0.1);
  const auto r1 = sim.add_resource(80.0);
  const auto r2 = sim.add_resource(60.0);
  const FlowPath paths[] = {{r0}, {r0, r1}, {r1, r2}, {r2}, {r0, r2}};
  for (int i = 0; i < 10; ++i) {
    const FlowPath path = paths[i % 5];
    const Bytes bytes = 100 + 23 * static_cast<Bytes>(i);
    const BytesPerSec cap = i % 3 == 0 ? 30.0 : 0.0;
    sim.at(0.2 * i, [&sim, &log, &stop, stop_at, path, bytes, cap, i](Seconds) {
      log.emplace_back(100 + i, sim.now());
      sim.start_flow(path, bytes, [&sim, &log, &stop, stop_at, path, i](Seconds t) {
        log.emplace_back(i, t);
        if (i == stop_at) stop = true;
        if (i < 4) sim.start_flow(path, 50, [&log, i](Seconds u) { log.emplace_back(10 + i, u); });
      }, cap);
    });
  }
  const FlowId doomed = sim.start_flow({r1}, 400, [&log](Seconds t) { log.emplace_back(-1, t); });
  sim.at(0.7, [&sim, &log, doomed](Seconds t) {
    log.emplace_back(200, t);
    sim.cancel_flow(doomed);
  });
  sim.at(1.1, [&sim, &log, r2](Seconds t) {
    log.emplace_back(201, t);
    sim.set_resource_capacity(r2, 30.0);
  });
}

TEST(FlowSimRunUntil, StopThenRunMatchesOneRun) {
  FlowSimulator once;
  EventLog once_log;
  bool never = false;
  contended_scenario(once, once_log, never, -1);
  once.run();

  FlowSimulator split;
  EventLog split_log;
  bool stop = false;
  contended_scenario(split, split_log, stop, 3);
  const Seconds stopped = split.run_until(stop);
  ASSERT_TRUE(stop);
  EXPECT_GT(split.active_flows(), 0u);  // stopped mid-run, not drained
  split.run();

  EXPECT_LT(stopped, split.now());
  EXPECT_EQ(split_log, once_log);
  EXPECT_EQ(split.now(), once.now());
  EXPECT_EQ(counters(split), counters(once));
  EXPECT_EQ(counters(once), (Counters{27, 146, 10, 67}));
}

// --------------------------------------- one-flow components, bindings read back

/// Runs the flows started by `start`, keeping each completed flow's binding
/// intervals in the order the flows completed.
struct BindingRun {
  FlowSimulator sim;
  std::vector<FlowId> ids;
  std::vector<Seconds> done;
  std::vector<std::vector<BindingInterval>> bindings;

  BindingRun() { sim.record_attribution(true); }

  void start(FlowPath path, Bytes bytes, BytesPerSec cap = 0) {
    const std::size_t i = ids.size();
    ids.push_back(sim.start_flow(std::move(path), bytes, [this, i](Seconds t) {
      const std::vector<BindingInterval>* attr = sim.completed_attribution(ids[i]);
      ASSERT_NE(attr, nullptr);
      done.push_back(t);
      bindings.push_back(*attr);
    }, cap));
  }
};

/// The (resource, start tick) of each binding interval.
using Binders = std::vector<std::pair<ResourceId, std::int64_t>>;

Binders binders(const std::vector<BindingInterval>& v) {
  Binders out;
  for (const BindingInterval& b : v) out.emplace_back(b.resource, b.start_ticks);
  return out;
}

TEST(FlowSimOneFlow, PathCrossingOneResourceTwiceCountsItTwice) {
  // r0 (100 B/s, beta 0.5) carries the flow twice: 100 / 1.5 shared by two
  // path entries is 33.3 B/s, below r1's 40, so r0 binds. At t=1 r1 drops to
  // 20 B/s and binds instead. Three re-levels: the start, the capacity
  // change and the empty one the retirement leaves.
  BindingRun run;
  const auto r0 = run.sim.add_resource(100.0, 0.5);
  const auto r1 = run.sim.add_resource(40.0);
  run.start({r0, r1, r0}, 100);
  run.sim.at(1.0, [&](Seconds) { run.sim.set_resource_capacity(r1, 20.0); });
  run.sim.run();
  ASSERT_EQ(run.done.size(), 1u);
  EXPECT_EQ(run.done[0], 4.333333333333333);
  EXPECT_EQ(binders(run.bindings[0]), (Binders{{r0, 0}, {r1, 1'000'000'000}}));
  EXPECT_EQ(run.sim.rate_recomputes(), 3u);
  EXPECT_EQ(run.sim.max_relevel_component(), 1u);
}

TEST(FlowSimOneFlow, CapEqualToTheShareLetsTheResourceBind) {
  // The water-fill's cap test is a strict <: a cap equal to the resource's
  // share leaves the resource binding. A cap below it binds (t=1, on r1).
  BindingRun run;
  const auto r0 = run.sim.add_resource(100.0);
  const auto r1 = run.sim.add_resource(100.0);
  run.start({r0}, 200, /*cap=*/100.0);
  run.sim.at(1.0, [&](Seconds) { run.start({r1}, 200, /*cap=*/99.5); });
  run.sim.run();
  ASSERT_EQ(run.done.size(), 2u);
  EXPECT_EQ(run.done[0], 2.0);
  EXPECT_EQ(run.done[1], 3.0100502512562812);
  EXPECT_EQ(binders(run.bindings[0]), (Binders{{r0, 0}}));
  EXPECT_EQ(binders(run.bindings[1]), (Binders{{kCapBinding, 1'000'000'000}}));
}

TEST(FlowSimOneFlow, EqualSharesBindTheLowerResourceId) {
  // Both resources offer 100 B/s: the lower id binds, not the first one on
  // the path. r2 binds alone while it is slowed to 50 B/s over [1, 2), and
  // r1 again once both offer 100 B/s.
  BindingRun run;
  const auto r1 = run.sim.add_resource(100.0);
  const auto r2 = run.sim.add_resource(100.0);
  run.start({r2, r1}, 300);
  run.sim.at(1.0, [&](Seconds) { run.sim.set_resource_capacity(r2, 50.0); });
  run.sim.at(2.0, [&](Seconds) { run.sim.set_resource_capacity(r2, 100.0); });
  run.sim.run();
  ASSERT_EQ(run.done.size(), 1u);
  EXPECT_EQ(run.done[0], 3.5);
  EXPECT_EQ(binders(run.bindings[0]),
            (Binders{{r1, 0}, {r2, 1'000'000'000}, {r1, 2'000'000'000}}));
}

}  // namespace
}  // namespace opass::sim
