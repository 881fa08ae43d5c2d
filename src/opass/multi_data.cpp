// Opass for parallel multi-data access (paper Section IV-C, Algorithm 1).
//
// Tasks with several inputs (e.g. a human + mouse + chimpanzee gene partition
// per comparison task) cannot be matched by the unit flow network, because a
// task may be partly local to several processes at once. Algorithm 1 is a
// stable-marriage-style greedy: every process must end up with n/m tasks;
// a deficient process proposes to its best not-yet-considered task (highest
// co-located byte count m_i^j); an assigned task accepts a proposal only
// from a process with a strictly larger matching value, cancelling its
// current assignment (the reassignment event of Fig. 6(b)).
//
// The result is optimal from each process's perspective (proposer-optimal,
// as in Gale–Shapley) and runs in O(m * n) proposals. It works for any task
// arity (single-input tasks reduce to a greedy locality matcher); quotas are
// n/m tasks per process with the first n%m processes taking one extra.
#include <algorithm>
#include <deque>
#include <numeric>

#include "common/require.hpp"
#include "opass/fig5.hpp"
#include "opass/matchers.hpp"

namespace opass::core {

PlanResult assign_multi_data(const dfs::NameNode& nn, const std::vector<runtime::Task>& tasks,
                             const ProcessPlacement& placement) {
  const auto m = static_cast<std::uint32_t>(placement.size());
  const auto n = static_cast<std::uint32_t>(tasks.size());
  OPASS_REQUIRE(m > 0, "need at least one process");

  // Matching values m_i^j = co-located bytes between process i and task j,
  // as a dense matrix (the Fig. 6(a) table), filled from each input's
  // replica holders.
  const Adjacency procs_on_node = processes_by_node(nn, placement);
  std::vector<Bytes> value(static_cast<std::size_t>(m) * n, 0);
  auto val = [&](std::uint32_t p, std::uint32_t t) -> Bytes& {
    return value[static_cast<std::size_t>(p) * n + t];
  };
  for (std::uint32_t t = 0; t < n; ++t) {
    for (dfs::ChunkId c : tasks[t].inputs) {
      const auto& chunk = nn.chunk(c);
      for (dfs::NodeId rep : chunk.replicas)
        for (std::uint32_t p : procs_on_node.row(rep)) val(p, t) += chunk.size;
    }
  }

  // Per-process preference order: tasks by descending matching value, id
  // ascending as the deterministic tie-break.
  std::vector<std::vector<std::uint32_t>> pref(m);
  for (std::uint32_t p = 0; p < m; ++p) {
    pref[p].resize(n);
    std::iota(pref[p].begin(), pref[p].end(), 0u);
    std::stable_sort(pref[p].begin(), pref[p].end(), [&](std::uint32_t a, std::uint32_t b) {
      return val(p, a) > val(p, b);
    });
  }

  const auto quotas = equal_quotas(n, m);
  std::vector<std::uint32_t> owner(n, UINT32_MAX);
  std::vector<std::uint32_t> held(m, 0);
  std::vector<std::size_t> cursor(m, 0);  // next unconsidered preference index

  PlanResult plan;

  // Round-robin over deficient processes; each iteration is one proposal.
  std::deque<std::uint32_t> deficient;
  for (std::uint32_t p = 0; p < m; ++p)
    if (held[p] < quotas[p]) deficient.push_back(p);

  while (!deficient.empty()) {
    const std::uint32_t p = deficient.front();
    deficient.pop_front();
    if (held[p] >= quotas[p]) continue;  // satisfied by an earlier steal-back
    // A deficient process always has an unconsidered task left: once it has
    // considered all n tasks, all n are assigned, which forces every process
    // to its quota (sum of quotas == n) — contradiction.
    OPASS_CHECK(cursor[p] < n, "deficient process exhausted its preference list");

    const std::uint32_t tx = pref[p][cursor[p]++];
    if (owner[tx] == UINT32_MAX) {
      owner[tx] = p;
      ++held[p];
    } else if (val(owner[tx], tx) < val(p, tx)) {
      // Reassignment event (Fig. 6(b)): the current owner loses the task.
      const std::uint32_t l = owner[tx];
      owner[tx] = p;
      ++held[p];
      --held[l];
      ++plan.reassignments;
      deficient.push_back(l);
    }
    if (held[p] < quotas[p]) deficient.push_back(p);
  }

  plan.assignment.assign(m, {});
  for (std::uint32_t t = 0; t < n; ++t) {
    OPASS_CHECK(owner[t] != UINT32_MAX, "task left unassigned by Algorithm 1");
    plan.assignment[owner[t]].push_back(t);
    plan.matched_bytes += val(owner[t], t);
  }
  for (std::uint32_t p = 0; p < m; ++p)
    OPASS_CHECK(held[p] == quotas[p] && plan.assignment[p].size() == quotas[p],
                "process ended away from its quota");
  return plan;
}

}  // namespace opass::core
