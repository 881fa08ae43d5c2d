// Randomized property tests of the flow-level simulator.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "sim/flow_sim.hpp"

namespace opass::sim {
namespace {

/// Random resource/flow instances: capacities, betas, topologies, sizes.
struct RandomInstance {
  FlowSimulator sim;
  std::vector<ResourceId> resources;
  std::vector<double> capacities;
  std::vector<Bytes> flow_bytes;
  std::vector<FlowPath> flow_paths;

  explicit RandomInstance(std::uint64_t seed) {
    Rng rng(seed);
    const auto r_count = static_cast<std::uint32_t>(2 + rng.uniform(6));
    for (std::uint32_t r = 0; r < r_count; ++r) {
      const double cap = 50.0 + static_cast<double>(rng.uniform(200));
      capacities.push_back(cap);
      resources.push_back(sim.add_resource(cap, rng.uniform01() * 0.3));
    }
    const auto f_count = static_cast<std::uint32_t>(1 + rng.uniform(12));
    for (std::uint32_t f = 0; f < f_count; ++f) {
      const auto path_len = static_cast<std::uint32_t>(1 + rng.uniform(3));
      auto pick = rng.sample_without_replacement(r_count, std::min(path_len, r_count));
      FlowPath path;
      for (auto idx : pick) path.push_back(resources[idx]);
      flow_paths.push_back(path);
      flow_bytes.push_back(100 + rng.uniform(5000));
    }
  }
};

TEST(FlowSimProperty, EveryFlowCompletes) {
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    RandomInstance inst(seed);
    std::size_t completed = 0;
    for (std::size_t f = 0; f < inst.flow_bytes.size(); ++f) {
      inst.sim.start_flow(inst.flow_paths[f], inst.flow_bytes[f],
                          [&](Seconds) { ++completed; });
    }
    inst.sim.run();
    EXPECT_EQ(completed, inst.flow_bytes.size()) << "seed " << seed;
    EXPECT_EQ(inst.sim.active_flows(), 0u) << "seed " << seed;
  }
}

TEST(FlowSimProperty, MakespanRespectsCapacityLowerBound) {
  // No resource can move more than its (undegraded) capacity per second, so
  // the makespan is at least max_r (bytes through r / capacity_r).
  for (std::uint64_t seed = 100; seed < 125; ++seed) {
    RandomInstance inst(seed);
    std::vector<double> through(inst.resources.size(), 0);
    for (std::size_t f = 0; f < inst.flow_bytes.size(); ++f) {
      for (ResourceId r : inst.flow_paths[f])
        through[r] += static_cast<double>(inst.flow_bytes[f]);
      inst.sim.start_flow(inst.flow_paths[f], inst.flow_bytes[f], nullptr);
    }
    const Seconds makespan = inst.sim.run();
    double bound = 0;
    for (std::size_t r = 0; r < inst.resources.size(); ++r)
      bound = std::max(bound, through[r] / inst.capacities[r]);
    EXPECT_GE(makespan, bound * (1.0 - 1e-9)) << "seed " << seed;
  }
}

TEST(FlowSimProperty, DeliveredBytesMatchInjected) {
  for (std::uint64_t seed = 200; seed < 220; ++seed) {
    RandomInstance inst(seed);
    double injected_per_resource = 0;
    std::vector<double> expect(inst.resources.size(), 0);
    for (std::size_t f = 0; f < inst.flow_bytes.size(); ++f) {
      for (ResourceId r : inst.flow_paths[f])
        expect[r] += static_cast<double>(inst.flow_bytes[f]);
      inst.sim.start_flow(inst.flow_paths[f], inst.flow_bytes[f], nullptr);
    }
    (void)injected_per_resource;
    inst.sim.run();
    for (std::size_t r = 0; r < inst.resources.size(); ++r) {
      EXPECT_NEAR(inst.sim.resource_bytes_served(inst.resources[r]), expect[r],
                  1e-3 * std::max(1.0, expect[r]))
          << "seed " << seed << " resource " << r;
    }
  }
}

TEST(FlowSimProperty, CompletionTimesAreMonotoneUnderMoreLoad) {
  // Adding an extra competing flow can only delay (or not affect) an
  // existing flow's completion.
  for (std::uint64_t seed = 300; seed < 312; ++seed) {
    Rng rng(seed);
    const double cap = 100.0;
    const Bytes probe_bytes = 500 + rng.uniform(2000);
    const Bytes extra_bytes = 500 + rng.uniform(2000);

    Seconds alone = -1, contended = -1;
    {
      FlowSimulator sim;
      const auto r = sim.add_resource(cap);
      sim.start_flow({r}, probe_bytes, [&](Seconds t) { alone = t; });
      sim.run();
    }
    {
      FlowSimulator sim;
      const auto r = sim.add_resource(cap);
      sim.start_flow({r}, probe_bytes, [&](Seconds t) { contended = t; });
      sim.start_flow({r}, extra_bytes, nullptr);
      sim.run();
    }
    EXPECT_GE(contended, alone - 1e-9) << "seed " << seed;
  }
}

}  // namespace
}  // namespace opass::sim
