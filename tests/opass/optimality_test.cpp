// Optimality properties of the matchers, verified against brute force and
// against the stable-marriage-style invariant.
#include <gtest/gtest.h>

#include <algorithm>

#include "opass/fig5.hpp"
#include "opass/planner.hpp"
#include "workload/dataset.hpp"
#include "workload/multi_input.hpp"

namespace opass::core {
namespace {

/// Exhaustive maximum of locally-assigned tasks over every quota-respecting
/// assignment, via recursion over tasks (n small).
std::uint32_t brute_force_max_local(const dfs::NameNode& nn,
                                    const std::vector<runtime::Task>& tasks,
                                    const ProcessPlacement& placement) {
  const auto m = static_cast<std::uint32_t>(placement.size());
  const auto n = static_cast<std::uint32_t>(tasks.size());
  const auto quotas = equal_quotas(n, m);
  std::vector<std::uint32_t> used(m, 0);

  std::uint32_t best = 0;
  auto recurse = [&](auto&& self, std::uint32_t t, std::uint32_t local) -> void {
    if (t == n) {
      best = std::max(best, local);
      return;
    }
    for (std::uint32_t p = 0; p < m; ++p) {
      if (used[p] >= quotas[p]) continue;
      ++used[p];
      const bool is_local = nn.chunk(tasks[t].inputs[0]).has_replica_on(placement[p]);
      self(self, t + 1, local + (is_local ? 1 : 0));
      --used[p];
    }
  };
  recurse(recurse, 0, 0);
  return best;
}

TEST(Optimality, FlowMatcherEqualsBruteForceOnRandomInstances) {
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    dfs::NameNode nn(dfs::Topology::single_rack(3), 2, kDefaultChunkSize);
    dfs::RandomPlacement policy;
    Rng rng(seed);
    const auto tasks = workload::make_single_data_workload(nn, 9, policy, rng);
    const auto placement = one_process_per_node(nn);

    const auto result = plan({&nn, &tasks, &placement, &rng});
    const auto optimal = brute_force_max_local(nn, tasks, placement);
    EXPECT_EQ(result.locally_matched, optimal) << "seed " << seed;
  }
}

TEST(Optimality, FlowMatcherEqualsBruteForceWithMoreProcesses) {
  for (std::uint64_t seed = 50; seed < 58; ++seed) {
    dfs::NameNode nn(dfs::Topology::single_rack(4), 1, kDefaultChunkSize);
    dfs::RandomPlacement policy;
    Rng rng(seed);
    const auto tasks = workload::make_single_data_workload(nn, 8, policy, rng);
    const auto placement = one_process_per_node(nn);

    const auto result = plan({&nn, &tasks, &placement, &rng});
    EXPECT_EQ(result.locally_matched, brute_force_max_local(nn, tasks, placement))
        << "seed " << seed;
  }
}

/// Co-located bytes between process and task under a placement.
Bytes value_of(const dfs::NameNode& nn, const runtime::Task& task, dfs::NodeId node) {
  Bytes v = 0;
  for (auto c : task.inputs)
    if (nn.chunk(c).has_replica_on(node)) v += nn.chunk(c).size;
  return v;
}

TEST(Optimality, Algorithm1SatisfiesQuotaStability) {
  // Stable-marriage-style invariant of the final matching: if process p
  // values task t strictly more than t's owner does, then p never reached t
  // in its preference order, so everything p holds is at least as valuable
  // to p as t. (A violated pair would mean a profitable reassignment the
  // algorithm missed.)
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    dfs::NameNode nn(dfs::Topology::single_rack(8), 3, kDefaultChunkSize);
    dfs::RandomPlacement policy;
    Rng rng(seed);
    const auto tasks = workload::make_multi_input_workload(nn, 24, policy, rng);
    const auto placement = one_process_per_node(nn);
    const auto result =
        plan({&nn, &tasks, &placement, nullptr}, {.planner = PlannerKind::kMultiData});

    std::vector<std::uint32_t> owner(tasks.size(), UINT32_MAX);
    for (std::uint32_t p = 0; p < placement.size(); ++p)
      for (auto t : result.assignment[p]) owner[t] = p;

    for (std::uint32_t p = 0; p < placement.size(); ++p) {
      // p's least-valued holding.
      Bytes min_held = UINT64_MAX;
      for (auto t : result.assignment[p])
        min_held = std::min(min_held, value_of(nn, tasks[t], placement[p]));
      for (std::uint32_t t = 0; t < tasks.size(); ++t) {
        if (owner[t] == p) continue;
        const Bytes mine = value_of(nn, tasks[t], placement[p]);
        const Bytes owners = value_of(nn, tasks[t], placement[owner[t]]);
        if (mine > owners) {
          EXPECT_GE(min_held, mine)
              << "seed " << seed << ": process " << p << " holds something worth less than "
              << "task " << t << " it values above the task's owner";
        }
      }
    }
  }
}

TEST(Optimality, Algorithm1MatchedBytesAtLeastGreedyWithoutStealing) {
  // The reassignment rule must never do worse than one-shot greedy (assign
  // each task to its best process under quota, no stealing).
  for (std::uint64_t seed = 20; seed < 28; ++seed) {
    dfs::NameNode nn(dfs::Topology::single_rack(6), 2, kDefaultChunkSize);
    dfs::RandomPlacement policy;
    Rng rng(seed);
    const auto tasks = workload::make_multi_input_workload(nn, 18, policy, rng);
    const auto placement = one_process_per_node(nn);
    const auto result =
        plan({&nn, &tasks, &placement, nullptr}, {.planner = PlannerKind::kMultiData});

    // One-shot greedy: tasks in id order to their best open process.
    const auto quotas = equal_quotas(18, 6);
    std::vector<std::uint32_t> used(6, 0);
    Bytes greedy = 0;
    for (const auto& task : tasks) {
      std::uint32_t best_p = UINT32_MAX;
      Bytes best_v = 0;
      for (std::uint32_t p = 0; p < 6; ++p) {
        if (used[p] >= quotas[p]) continue;
        const Bytes v = value_of(nn, task, placement[p]);
        if (best_p == UINT32_MAX || v > best_v) {
          best_p = p;
          best_v = v;
        }
      }
      ++used[best_p];
      greedy += best_v;
    }
    EXPECT_GE(result.matched_bytes, greedy) << "seed " << seed;
  }
}

}  // namespace
}  // namespace opass::core
