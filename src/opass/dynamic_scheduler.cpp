#include "opass/dynamic_scheduler.hpp"

#include <algorithm>

#include "common/require.hpp"

namespace opass::core {

OpassDynamicSource::OpassDynamicSource(runtime::Assignment guideline, const dfs::NameNode& nn,
                                       const std::vector<runtime::Task>& tasks,
                                       ProcessPlacement placement)
    : nn_(nn), tasks_(tasks), placement_(std::move(placement)) {
  OPASS_REQUIRE(guideline.size() == placement_.size(),
                "guideline and placement disagree on process count");
  lists_.resize(guideline.size());
  for (std::size_t p = 0; p < guideline.size(); ++p)
    lists_[p].assign(guideline[p].begin(), guideline[p].end());
}

Bytes OpassDynamicSource::co_located_bytes(runtime::ProcessId process,
                                           runtime::TaskId task) const {
  const dfs::NodeId node = placement_[process];
  Bytes co = 0;
  for (dfs::ChunkId c : tasks_[task].inputs)
    if (nn_.chunk(c).has_replica_on(node)) co += nn_.chunk(c).size;
  return co;
}

std::optional<runtime::TaskId> OpassDynamicSource::next_task(runtime::ProcessId process,
                                                             Seconds /*now*/) {
  OPASS_REQUIRE(process < lists_.size(), "process out of range");

  // Step 2: own list first.
  auto& own = lists_[process];
  if (!own.empty()) {
    const runtime::TaskId t = own.front();
    own.pop_front();
    ++guideline_hits_;
    return t;
  }

  // Step 3: steal from the longest remaining list, preferring the task with
  // the most co-located data for the idle process.
  std::size_t longest = lists_.size();
  for (std::size_t k = 0; k < lists_.size(); ++k) {
    if (lists_[k].empty()) continue;
    if (longest == lists_.size() || lists_[k].size() > lists_[longest].size()) longest = k;
  }
  if (longest == lists_.size()) return std::nullopt;  // all drained

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
  ++steals_;
  if (co_located_bytes(process, t) > 0) ++steal_local_hits_;
  return t;
}

bool OpassDynamicSource::on_dead_node(runtime::ProcessId process) const {
  return std::find(dead_nodes_.begin(), dead_nodes_.end(), placement_[process]) !=
         dead_nodes_.end();
}

void OpassDynamicSource::on_node_dead(dfs::NodeId node) {
  if (std::find(dead_nodes_.begin(), dead_nodes_.end(), node) != dead_nodes_.end()) return;
  dead_nodes_.push_back(node);

  for (std::size_t p = 0; p < lists_.size(); ++p) {
    if (placement_[p] != node) continue;
    std::deque<runtime::TaskId> orphans;
    orphans.swap(lists_[p]);
    for (runtime::TaskId t : orphans) {
      // Best co-located alive process, ties to the smallest id.
      std::size_t best = lists_.size();
      Bytes best_bytes = 0;
      for (std::size_t q = 0; q < lists_.size(); ++q) {
        if (on_dead_node(static_cast<runtime::ProcessId>(q))) continue;
        const Bytes b = co_located_bytes(static_cast<runtime::ProcessId>(q), t);
        if (best == lists_.size() || b > best_bytes) {
          best = q;
          best_bytes = b;
        }
      }
      if (best == lists_.size()) {
        lists_[p].push_back(t);  // every process is on a dead node: keep it
        continue;
      }
      if (best_bytes == 0) {
        // No surviving co-located replica anywhere: balance instead — the
        // shortest alive list takes it (ties to the smallest id).
        for (std::size_t q = 0; q < lists_.size(); ++q) {
          if (on_dead_node(static_cast<runtime::ProcessId>(q))) continue;
          if (lists_[q].size() < lists_[best].size()) best = q;
        }
      }
      lists_[best].push_back(t);
      ++failure_reassignments_;
    }
  }
}

std::uint32_t OpassDynamicSource::remaining_tasks() const {
  std::size_t n = 0;
  for (const auto& l : lists_) n += l.size();
  return static_cast<std::uint32_t>(n);
}

std::vector<runtime::TaskId> OpassDynamicSource::remaining_task_ids() const {
  std::vector<runtime::TaskId> ids;
  ids.reserve(remaining_tasks());
  for (const auto& l : lists_) ids.insert(ids.end(), l.begin(), l.end());
  std::sort(ids.begin(), ids.end());
  return ids;
}

void OpassDynamicSource::adopt_guideline(const runtime::Assignment& guideline) {
  OPASS_REQUIRE(guideline.size() == lists_.size(),
                "guideline and placement disagree on process count");
  std::vector<runtime::TaskId> incoming;
  for (const auto& l : guideline) incoming.insert(incoming.end(), l.begin(), l.end());
  std::sort(incoming.begin(), incoming.end());
  OPASS_REQUIRE(incoming == remaining_task_ids(),
                "adopted guideline must cover exactly the remaining tasks");
  for (std::size_t p = 0; p < guideline.size(); ++p)
    lists_[p].assign(guideline[p].begin(), guideline[p].end());
}

}  // namespace opass::core
