// Parallel re-leveling determinism: a FlowSimulator driven through a worker
// pool must produce byte-identical schedules — every completion time, every
// engine counter — for any thread count, because the per-component
// water-filling is a value-exact reproduction of the serial merged pass
// (see FlowSimulator::recompute_rates_parallel).
#include "sim/flow_sim.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"

namespace opass::sim {
namespace {

/// One simulated scenario: `groups` disjoint resource clusters, flows
/// arriving over time inside each, plus optional cross-group flows that
/// merge components. Returns every completion time in flow-creation order.
struct Scenario {
  std::uint32_t groups = 8;
  std::uint32_t resources_per_group = 3;
  std::uint32_t flows_per_group = 12;
  bool cross_group_flows = false;

  std::vector<Seconds> run(ThreadPool* pool) const {
    FlowSimulator sim;
    if (pool != nullptr) sim.set_parallelism(pool);
    Rng rng(99);

    std::vector<std::vector<ResourceId>> group_res(groups);
    for (std::uint32_t g = 0; g < groups; ++g)
      for (std::uint32_t r = 0; r < resources_per_group; ++r)
        group_res[g].push_back(sim.add_resource(50.0 + 10.0 * r, r == 0 ? 0.05 : 0.0));

    std::vector<Seconds> done(groups * flows_per_group + (cross_group_flows ? groups : 0),
                              -1.0);
    std::size_t next = 0;
    for (std::uint32_t g = 0; g < groups; ++g) {
      for (std::uint32_t f = 0; f < flows_per_group; ++f) {
        const std::size_t slot = next++;
        // Flows cross one or two of the group's resources; staggered starts
        // keep the incremental engine re-leveling dirty components all run.
        FlowPath path{group_res[g][f % resources_per_group]};
        if (f % 3 == 0)
          path.push_back(group_res[g][(f + 1) % resources_per_group]);
        const Bytes bytes = 200 + 37 * (f % 5);
        const Seconds start = 0.25 * static_cast<double>(f % 7);
        const BytesPerSec cap = (f % 4 == 0) ? 18.0 : 0.0;
        sim.at(start, [&sim, &done, slot, path, bytes, cap](Seconds) {
          sim.start_flow(path, bytes,
                         [&done, slot](Seconds end) { done[slot] = end; }, cap);
        });
      }
      if (cross_group_flows) {
        // A flow spanning two groups merges their components mid-run.
        const std::size_t slot = next++;
        const FlowPath path{group_res[g][0], group_res[(g + 1) % groups][0]};
        sim.at(0.6, [&sim, &done, slot, path](Seconds) {
          sim.start_flow(path, 333, [&done, slot](Seconds end) { done[slot] = end; });
        });
      }
    }
    sim.run();
    return done;
  }
};

TEST(FlowSimParallel, DisjointComponentsMatchSerialExactly) {
  Scenario sc;
  const auto serial = sc.run(nullptr);
  for (std::uint32_t threads : {2u, 4u, 8u}) {
    ThreadPool pool(threads);
    const auto parallel = sc.run(&pool);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
      EXPECT_EQ(parallel[i], serial[i]) << "flow " << i << " threads=" << threads;
  }
}

TEST(FlowSimParallel, MergingComponentsMatchSerialExactly) {
  Scenario sc;
  sc.cross_group_flows = true;  // components merge and split mid-run
  const auto serial = sc.run(nullptr);
  for (std::uint32_t threads : {2u, 4u}) {
    ThreadPool pool(threads);
    const auto parallel = sc.run(&pool);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
      EXPECT_EQ(parallel[i], serial[i]) << "flow " << i << " threads=" << threads;
  }
}

TEST(FlowSimParallel, EngineCountersMatchSerial) {
  // The observability counters (recompute totals, touched flows, largest
  // re-leveled component) are part of the deterministic surface too.
  auto run_counters = [](ThreadPool* pool) {
    FlowSimulator sim;
    if (pool != nullptr) sim.set_parallelism(pool);
    const auto r1 = sim.add_resource(100.0);
    const auto r2 = sim.add_resource(80.0);
    const auto r3 = sim.add_resource(60.0);
    for (int i = 0; i < 9; ++i) {
      const FlowPath path =
          i % 3 == 0 ? FlowPath{r1} : (i % 3 == 1 ? FlowPath{r2} : FlowPath{r3, r2});
      sim.after(0.1 * i, [&sim, path](Seconds) {
        sim.start_flow(path, 150, [](Seconds) {});
      });
    }
    sim.run();
    return std::tuple{sim.rate_recomputes(), sim.rate_recompute_touched_flows(),
                      sim.max_relevel_component(), sim.eta_stale_pops()};
  };
  const auto serial = run_counters(nullptr);
  ThreadPool pool(4);
  EXPECT_EQ(run_counters(&pool), serial);
}

}  // namespace
}  // namespace opass::sim
