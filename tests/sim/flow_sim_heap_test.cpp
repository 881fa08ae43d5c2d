// Edge cases for the lazily invalidated completion heap and the reusable
// flow-slot pool (DESIGN.md "Simulator scalability"). Each heap test forces a
// specific staleness pattern: a queued ETA whose flow sped up, slowed down,
// was cancelled, or never had bytes to move — and checks that completion
// times stay exact and callbacks fire exactly once.
#include "sim/flow_sim.hpp"

#include <gtest/gtest.h>

#include <tuple>
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
  EXPECT_GE(sim.eta_stale_pops(), 1u);
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
    EXPECT_TRUE(sim.flow_active(doomed));
    sim.cancel_flow(doomed);
    EXPECT_FALSE(sim.flow_active(doomed));
    sim.cancel_flow(doomed);  // idempotent
  });
  sim.run();
  EXPECT_FALSE(cancelled_fired);
  // A: 100 bytes by t=2, then 100 B/s with 400 left => done at 6.
  EXPECT_DOUBLE_EQ(da, 6.0);
  EXPECT_EQ(sim.active_flows(), 0u);
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
    EXPECT_FALSE(sim.flow_active(a));
    const FlowId b = sim.start_flow({r}, 100, [&](Seconds t) { db = t; });
    EXPECT_EQ(static_cast<std::uint32_t>(b), static_cast<std::uint32_t>(a));  // slot reused
    EXPECT_NE(b, a);                                                          // tag differs
    sim.cancel_flow(a);  // stale: must not cancel b
    EXPECT_TRUE(sim.flow_active(b));
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

}  // namespace
}  // namespace opass::sim
