// Allocation-count regression gate for the per-entity lists (DESIGN.md §5).
//
// This binary replaces the global operator new and delete with counting
// versions, so each test can count the heap allocations one call makes. The
// paper-scale layout (40,960 chunks on 1,024 nodes at r = 3) and the
// rank-interval baseline's simulated reads over it must stay well below one
// allocation per chunk and per read: replica lists, task inputs and flow
// paths live inline, and the executor's read callback captures no record.
// What remains is the amortized growth of per-node inventories, traces and
// event heaps. Heartbeat rounds on the same 1,024 nodes stay below a tenth
// of an allocation per beat: a round is one timer per beat group and one
// batched send, and each message's flow callback fits std::function's
// inline buffer (DESIGN.md §8, §11). Repeated planning allocates nothing once its arenas are warm
// (DESIGN.md §5): a network rebuild and max-flow solve on a warm
// FlowWorkspace allocate nothing, and a warm Fig. 5 solve allocates only the
// owner vector it returns.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <functional>
#include <new>
#include <string>
#include <vector>

#include "dfs/namenode.hpp"
#include "dfs/placement.hpp"
#include "graph/max_flow.hpp"
#include "opass/fig5.hpp"
#include "runtime/executor.hpp"
#include "runtime/static_partitioner.hpp"
#include "runtime/task.hpp"
#include "runtime/task_source.hpp"
#include "sim/cluster.hpp"
#include "sim/heartbeat.hpp"

namespace {

// Only the test body allocates while counting is on; the suite runs no
// worker threads, so plain globals suffice.
bool g_counting = false;
std::size_t g_allocations = 0;

void* counted_alloc(std::size_t size, std::size_t align) {
  if (g_counting) ++g_allocations;
  if (size == 0) size = 1;
  void* p = align > alignof(std::max_align_t)
                ? std::aligned_alloc(align, (size + align - 1) / align * align)
                : std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

/// Counts the allocations made while it is alive.
class AllocationCounter {
 public:
  AllocationCounter() {
    g_allocations = 0;
    g_counting = true;
  }
  ~AllocationCounter() { g_counting = false; }
  AllocationCounter(const AllocationCounter&) = delete;
  AllocationCounter& operator=(const AllocationCounter&) = delete;
  std::size_t count() const { return g_allocations; }
};

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size, 0); }
void* operator new[](std::size_t size) { return counted_alloc(size, 0); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size, 0);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size, 0);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace opass {
namespace {

constexpr std::uint32_t kNodes = 1024;
constexpr std::uint32_t kChunks = 40960;

/// The single-data layout of the repository benchmark's 1,024-node workloads.
dfs::FileId store_layout(dfs::NameNode& nn, Rng& rng) {
  dfs::RandomPlacement policy;
  return nn.create_file("dataset", static_cast<Bytes>(kChunks) * nn.chunk_size(), policy, rng);
}

TEST(AllocationCount, LayoutStaysBelowHalfAnAllocationPerChunk) {
  dfs::NameNode nn(dfs::Topology::single_rack(kNodes), 3, kDefaultChunkSize);
  Rng rng(9);
  std::size_t allocations = 0;
  {
    AllocationCounter counter;
    store_layout(nn, rng);
    allocations = counter.count();
  }
  ASSERT_EQ(nn.chunk_count(), kChunks);
  const double per_chunk = static_cast<double>(allocations) / kChunks;
  RecordProperty("allocations_per_chunk", std::to_string(per_chunk));
  EXPECT_LT(per_chunk, 0.5) << allocations << " allocations for " << kChunks << " chunks";
}

TEST(AllocationCount, BaselineExecutionStaysBelowHalfAnAllocationPerRead) {
  dfs::NameNode nn(dfs::Topology::single_rack(kNodes), 3, kDefaultChunkSize);
  Rng rng(9);
  const dfs::FileId file = store_layout(nn, rng);
  const auto tasks = runtime::single_input_tasks(nn, {file});
  const auto assignment = runtime::rank_interval_assignment(kChunks, kNodes);
  sim::Cluster cluster(kNodes);
  runtime::StaticAssignmentSource source(assignment);
  Rng exec_rng(3);
  runtime::ExecutionResult result;
  std::size_t allocations = 0;
  {
    AllocationCounter counter;
    result = runtime::execute(cluster, nn, tasks, source, exec_rng);
    allocations = counter.count();
  }
  ASSERT_EQ(result.trace.size(), kChunks);
  const double per_read = static_cast<double>(allocations) / kChunks;
  RecordProperty("allocations_per_read", std::to_string(per_read));
  EXPECT_LT(per_read, 0.5) << allocations << " allocations for " << kChunks << " reads";
}

TEST(AllocationCount, HeartbeatRoundsStayBelowATenthOfAnAllocationPerBeat) {
  dfs::NameNode nn(dfs::Topology::single_rack(kNodes), 3, kDefaultChunkSize);
  sim::Cluster cluster(kNodes);
  Rng rng(9);
  sim::HeartbeatMonitor monitor(cluster, nn, /*namenode_host=*/0, rng);
  std::size_t allocations = 0;
  {
    AllocationCounter counter;
    monitor.start(/*horizon=*/120.0);
    cluster.run();
    allocations = counter.count();
  }
  EXPECT_EQ(monitor.recoveries(), 0u);
  constexpr std::uint32_t kBeats = kNodes * 40;  // 3 s rounds up to 120 s
  const double per_beat = static_cast<double>(allocations) / kBeats;
  RecordProperty("allocations_per_beat", std::to_string(per_beat));
  EXPECT_LT(per_beat, 0.1) << allocations << " allocations for " << kBeats << " beats";
}

/// The Fig. 5 network of 8,192 tasks on 256 single-process nodes at r = 3:
/// per-process quotas, then each task's replica holders in replica order.
struct Fig5Instance {
  std::vector<graph::Cap> quotas;
  std::vector<dfs::ReplicaList> holders;

  Fig5Instance() {
    dfs::NameNode nn(dfs::Topology::single_rack(256), 3, kDefaultChunkSize);
    Rng rng(9);
    dfs::RandomPlacement policy;
    const dfs::FileId file =
        nn.create_file("dataset", Bytes{8192} * nn.chunk_size(), policy, rng);
    for (dfs::ChunkId c : nn.file(file).chunks) holders.push_back(nn.chunk(c).replicas);
    quotas.assign(256, 8192 / 256);
  }

  /// Rebuild the network into `ws`: s = 0, t = 1, processes, then tasks.
  void build(graph::FlowWorkspace& ws) const {
    const auto m = static_cast<graph::NodeIdx>(quotas.size());
    const auto n = static_cast<graph::NodeIdx>(holders.size());
    ws.network.clear(2 + m + n);
    for (graph::NodeIdx p = 0; p < m; ++p) ws.network.add_edge(0, 2 + p, quotas[p]);
    for (graph::NodeIdx task = 0; task < n; ++task)
      for (dfs::NodeId node : holders[task]) ws.network.add_edge(2 + node, 2 + m + task, 1);
    for (graph::NodeIdx task = 0; task < n; ++task) ws.network.add_edge(2 + m + task, 1, 1);
  }
};

TEST(AllocationCount, WarmMaxFlowAllocatesNothing) {
  const Fig5Instance instance;
  graph::FlowWorkspace ws;
  instance.build(ws);
  const graph::Cap cold = graph::max_flow(ws, 0, 1);
  std::size_t allocations = 0;
  graph::Cap warm = 0;
  {
    AllocationCounter counter;
    instance.build(ws);
    warm = graph::max_flow(ws, 0, 1);
    allocations = counter.count();
  }
  EXPECT_EQ(warm, cold);
  EXPECT_EQ(allocations, 0u);
}

TEST(AllocationCount, WarmFig5SolveAllocatesOnlyItsResult) {
  const Fig5Instance instance;
  const auto n = static_cast<std::uint32_t>(instance.holders.size());
  const std::function<void(const core::Fig5Edges&)> emit = [&](const core::Fig5Edges& edge) {
    for (std::uint32_t task = 0; task < n; ++task)
      for (dfs::NodeId node : instance.holders[task]) edge(node, task);
  };
  graph::FlowWorkspace ws;
  const auto cold = core::solve_fig5(ws, instance.quotas, n, emit);
  std::size_t allocations = 0;
  std::vector<std::uint32_t> warm;
  {
    AllocationCounter counter;
    warm = core::solve_fig5(ws, instance.quotas, n, emit);
    allocations = counter.count();
  }
  EXPECT_EQ(warm, cold);
  EXPECT_EQ(allocations, 1u) << "only the returned owner vector may allocate";
}

}  // namespace
}  // namespace opass
