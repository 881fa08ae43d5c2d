#include "opass/dynamic_scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <set>

#include "opass/planner.hpp"
#include "workload/dataset.hpp"

namespace opass::core {
namespace {

struct DynamicFixture : ::testing::Test {
  DynamicFixture() : nn(dfs::Topology::single_rack(4), 2, kDefaultChunkSize), rng(1) {
    tasks = workload::make_single_data_workload(nn, 12, policy, rng);
    placement = one_process_per_node(nn);
  }
  dfs::NameNode nn;
  dfs::RandomPlacement policy;
  Rng rng;
  std::vector<runtime::Task> tasks;
  ProcessPlacement placement;
};

TEST_F(DynamicFixture, ServesOwnListFirstInOrder) {
  OpassDynamicSource src({{3, 1}, {2}, {0}, {}}, nn, tasks, placement);
  EXPECT_EQ(src.next_task(0, 0.0), std::optional<runtime::TaskId>(3));
  EXPECT_EQ(src.next_task(0, 0.0), std::optional<runtime::TaskId>(1));
  EXPECT_EQ(src.next_task(1, 0.0), std::optional<runtime::TaskId>(2));
  EXPECT_EQ(src.steal_count(), 0u);
}

TEST_F(DynamicFixture, StealsFromLongestList) {
  // p3's list empty; p0 holds the longest list.
  OpassDynamicSource src({{0, 1, 2, 3}, {4}, {5}, {}}, nn, tasks, placement);
  const auto t = src.next_task(3, 0.0);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(src.steal_count(), 1u);
  // The stolen task came from p0's list.
  std::set<runtime::TaskId> p0_list{0, 1, 2, 3};
  EXPECT_TRUE(p0_list.count(*t));
}

TEST_F(DynamicFixture, StealPrefersCoLocatedTask) {
  // Find a task with a replica on node 3 and one without; both in p0's list.
  runtime::TaskId local_t = UINT32_MAX, remote_t = UINT32_MAX;
  for (const auto& t : tasks) {
    if (nn.chunk(t.inputs[0]).has_replica_on(3) && local_t == UINT32_MAX) local_t = t.id;
    if (!nn.chunk(t.inputs[0]).has_replica_on(3) && remote_t == UINT32_MAX) remote_t = t.id;
  }
  ASSERT_NE(local_t, UINT32_MAX);
  ASSERT_NE(remote_t, UINT32_MAX);

  OpassDynamicSource src({{remote_t, local_t}, {}, {}, {}}, nn, tasks, placement);
  EXPECT_EQ(src.next_task(3, 0.0), std::optional<runtime::TaskId>(local_t));
  EXPECT_EQ(src.steal_count(), 1u);
}

TEST_F(DynamicFixture, DrainsEverythingExactlyOnce) {
  const auto guideline = plan({&nn, &tasks, &placement, &rng});
  OpassDynamicSource src(guideline.assignment, nn, tasks, placement);
  std::set<runtime::TaskId> seen;
  // Round-robin idle processes until drained.
  bool progress = true;
  while (progress) {
    progress = false;
    for (runtime::ProcessId p = 0; p < 4; ++p) {
      const auto t = src.next_task(p, 0.0);
      if (t) {
        EXPECT_TRUE(seen.insert(*t).second) << "task dispensed twice";
        progress = true;
      }
    }
  }
  EXPECT_EQ(seen.size(), tasks.size());
}

TEST_F(DynamicFixture, ReturnsNulloptWhenEmpty) {
  OpassDynamicSource src({{}, {}, {}, {}}, nn, tasks, placement);
  EXPECT_EQ(src.next_task(0, 0.0), std::nullopt);
}

TEST_F(DynamicFixture, FastProcessEndsUpStealingWork) {
  // One process drains its short list then must steal repeatedly.
  OpassDynamicSource src({{0, 1, 2, 3, 4, 5}, {}, {}, {}}, nn, tasks, placement);
  for (int i = 0; i < 6; ++i) EXPECT_TRUE(src.next_task(1, 0.0).has_value());
  EXPECT_EQ(src.steal_count(), 6u);
  EXPECT_EQ(src.next_task(0, 0.0), std::nullopt);
}

TEST_F(DynamicFixture, MismatchedGuidelineRejected) {
  EXPECT_THROW(OpassDynamicSource({{0}}, nn, tasks, placement), std::invalid_argument);
  OpassDynamicSource src({{}, {}, {}, {}}, nn, tasks, placement);
  EXPECT_THROW(src.next_task(9, 0.0), std::invalid_argument);
}

/// The Section IV-D rule as it read before the size index: every steal and
/// every drained pull scans each list's size, and remaining_tasks() sums
/// them. Kept verbatim as the oracle the indexed source must match.
class FullScanSource {
 public:
  FullScanSource(const runtime::Assignment& guideline, const dfs::NameNode& nn,
                 const std::vector<runtime::Task>& tasks, ProcessPlacement placement)
      : nn_(nn), tasks_(tasks), placement_(std::move(placement)) {
    lists_.resize(guideline.size());
    for (std::size_t p = 0; p < guideline.size(); ++p)
      lists_[p].assign(guideline[p].begin(), guideline[p].end());
  }

  std::optional<runtime::TaskId> next_task(runtime::ProcessId process) {
    auto& own = lists_[process];
    if (!own.empty()) {
      const runtime::TaskId t = own.front();
      own.pop_front();
      ++guideline_hits;
      return t;
    }
    std::size_t longest = lists_.size();
    for (std::size_t k = 0; k < lists_.size(); ++k) {
      if (lists_[k].empty()) continue;
      if (longest == lists_.size() || lists_[k].size() > lists_[longest].size()) longest = k;
    }
    if (longest == lists_.size()) return std::nullopt;
    auto& victim = lists_[longest];
    std::size_t best = 0;
    Bytes best_bytes = co_located_bytes(process, victim[0]);
    for (std::size_t i = 1; i < victim.size(); ++i) {
      const Bytes b = co_located_bytes(process, victim[i]);
      if (b > best_bytes) {
        best_bytes = b;
        best = i;
      }
    }
    const runtime::TaskId t = victim[best];
    victim.erase(victim.begin() + static_cast<std::ptrdiff_t>(best));
    ++steals;
    if (co_located_bytes(process, t) > 0) ++steal_local_hits;
    return t;
  }

  void on_node_dead(dfs::NodeId node) {
    if (std::find(dead_.begin(), dead_.end(), node) != dead_.end()) return;
    dead_.push_back(node);
    for (std::size_t p = 0; p < lists_.size(); ++p) {
      if (placement_[p] != node) continue;
      std::deque<runtime::TaskId> orphans;
      orphans.swap(lists_[p]);
      for (runtime::TaskId t : orphans) {
        std::size_t best = lists_.size();
        Bytes best_bytes = 0;
        for (std::size_t q = 0; q < lists_.size(); ++q) {
          if (dead(q)) continue;
          const Bytes b = co_located_bytes(static_cast<runtime::ProcessId>(q), t);
          if (best == lists_.size() || b > best_bytes) {
            best = q;
            best_bytes = b;
          }
        }
        if (best == lists_.size()) {
          lists_[p].push_back(t);
          continue;
        }
        if (best_bytes == 0) {
          for (std::size_t q = 0; q < lists_.size(); ++q) {
            if (dead(q)) continue;
            if (lists_[q].size() < lists_[best].size()) best = q;
          }
        }
        lists_[best].push_back(t);
      }
    }
  }

  void adopt_guideline(const runtime::Assignment& guideline) {
    for (std::size_t p = 0; p < guideline.size(); ++p)
      lists_[p].assign(guideline[p].begin(), guideline[p].end());
  }

  std::uint32_t remaining_tasks() const {
    std::size_t n = 0;
    for (const auto& l : lists_) n += l.size();
    return static_cast<std::uint32_t>(n);
  }

  std::uint32_t steals = 0;
  std::uint32_t steal_local_hits = 0;
  std::uint32_t guideline_hits = 0;

 private:
  Bytes co_located_bytes(runtime::ProcessId process, runtime::TaskId task) const {
    Bytes co = 0;
    for (dfs::ChunkId c : tasks_[task].inputs)
      if (nn_.chunk(c).has_replica_on(placement_[process])) co += nn_.chunk(c).size;
    return co;
  }
  bool dead(std::size_t q) const {
    return std::find(dead_.begin(), dead_.end(), placement_[q]) != dead_.end();
  }

  std::vector<std::deque<runtime::TaskId>> lists_;
  const dfs::NameNode& nn_;
  const std::vector<runtime::Task>& tasks_;
  ProcessPlacement placement_;
  std::vector<dfs::NodeId> dead_;
};

/// Deal `ids` to `processes` lists at random, so list lengths vary and some
/// lists start empty.
runtime::Assignment random_guideline(std::vector<runtime::TaskId> ids, std::uint32_t processes,
                                     Rng& rng) {
  rng.shuffle(ids);
  runtime::Assignment lists(processes);
  const auto favoured = static_cast<std::uint32_t>(rng.uniform(processes));
  for (runtime::TaskId id : ids) {
    // A third of the tasks crowd onto one list, so steals see a clear maximum
    // as well as ties.
    const auto p = rng.uniform(3) == 0 ? favoured : static_cast<std::uint32_t>(rng.uniform(processes));
    lists[p].push_back(id);
  }
  return lists;
}

TEST(DynamicSourceParity, SizeIndexMatchesFullScan) {
  constexpr std::uint32_t kNodes = 24;
  constexpr std::uint32_t kProcesses = 36;  // nodes 0-11 host two processes
  for (std::uint64_t seed : {1, 2, 3, 4, 5, 6}) {
    dfs::NameNode nn(dfs::Topology::single_rack(kNodes), 3, kDefaultChunkSize);
    dfs::RandomPlacement policy;
    Rng rng(seed);
    const auto tasks = workload::make_single_data_workload(nn, 300, policy, rng);
    ProcessPlacement placement(kProcesses);
    for (std::uint32_t p = 0; p < kProcesses; ++p) placement[p] = p % kNodes;
    std::vector<runtime::TaskId> ids(tasks.size());
    for (runtime::TaskId id = 0; id < ids.size(); ++id) ids[id] = id;
    const auto guideline = random_guideline(ids, kProcesses, rng);
    OpassDynamicSource indexed(guideline, nn, tasks, placement);
    FullScanSource scan(guideline, nn, tasks, placement);

    std::uint32_t dispensed = 0, drained_pulls = 0;
    for (int step = 0; step < 600; ++step) {
      const auto op = rng.uniform(100);
      if (op < 2) {
        const auto node = static_cast<dfs::NodeId>(rng.uniform(kNodes));
        indexed.on_node_dead(node);
        scan.on_node_dead(node);
      } else if (op < 4) {
        const auto fresh = random_guideline(indexed.remaining_task_ids(), kProcesses, rng);
        indexed.adopt_guideline(fresh);
        scan.adopt_guideline(fresh);
      } else {
        const auto p = static_cast<runtime::ProcessId>(rng.uniform(kProcesses));
        const auto got = indexed.next_task(p, 0.0);
        ASSERT_EQ(got, scan.next_task(p)) << "seed " << seed << " step " << step;
        if (got) {
          ++dispensed;
        } else {
          ++drained_pulls;
        }
      }
      ASSERT_EQ(indexed.remaining_tasks(), scan.remaining_tasks())
          << "seed " << seed << " step " << step;
    }
    EXPECT_EQ(indexed.steal_count(), scan.steals) << "seed " << seed;
    EXPECT_EQ(indexed.steal_local_hits(), scan.steal_local_hits) << "seed " << seed;
    EXPECT_EQ(indexed.guideline_hits(), scan.guideline_hits) << "seed " << seed;
    // The sequence reached both regimes: steals and pulls that found every
    // list empty.
    EXPECT_GT(indexed.steal_count(), 0u) << "seed " << seed;
    EXPECT_GT(drained_pulls, 0u) << "seed " << seed;
    EXPECT_EQ(dispensed, tasks.size()) << "seed " << seed;
  }
}

}  // namespace
}  // namespace opass::core
