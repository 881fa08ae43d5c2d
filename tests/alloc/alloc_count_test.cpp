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
//
// The footprint gates also sum the bytes each allocation asks for, so a table
// grown by doubling pays for every buffer it abandoned. A run's tables are
// sized once from the input that determines them (DESIGN.md §8): the chunk
// table and each touched inventory from the staged placements, the task table
// from the chunk count, the trace and task spans from the task table, and a
// cold Fig. 5 solve's arcs from one counting run over its edges. A layout of
// many one-chunk files must still grow geometrically, and the cluster builds
// no per-node admission queue.
//
// The sinks cost a fixed number of allocations per run, not one or more per
// item (DESIGN.md §8, §13): on the repository benchmark's sinks-on shape, the
// span log reserves once and keeps every slice in one arena, the collectors
// compose names in one buffer into a registry that stores each name once,
// and the timeline stores its samples in blocks of ticks.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <functional>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "dfs/namenode.hpp"
#include "dfs/placement.hpp"
#include "graph/max_flow.hpp"
#include "obs/collect.hpp"
#include "obs/spans.hpp"
#include "obs/timeline.hpp"
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
std::size_t g_bytes = 0;

void* counted_alloc(std::size_t size, std::size_t align) {
  if (g_counting) {
    ++g_allocations;
    g_bytes += size;
  }
  if (size == 0) size = 1;
  void* p = align > alignof(std::max_align_t)
                ? std::aligned_alloc(align, (size + align - 1) / align * align)
                : std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

/// Counts the allocations made while it is alive, and the bytes they asked for.
class AllocationCounter {
 public:
  AllocationCounter() {
    g_allocations = 0;
    g_bytes = 0;
    g_counting = true;
  }
  ~AllocationCounter() { g_counting = false; }
  AllocationCounter(const AllocationCounter&) = delete;
  AllocationCounter& operator=(const AllocationCounter&) = delete;
  std::size_t count() const { return g_allocations; }
  std::size_t bytes() const { return g_bytes; }
};

}  // namespace

// The deletes stay out of line: inlined next to the replaced operator new
// (malloc) at a call site, their std::free would trip gcc's
// -Wmismatched-new-delete in an -O1 sanitizer build.
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
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace opass {
namespace {

constexpr std::uint32_t kNodes = 1024;
constexpr std::uint32_t kChunks = 40960;

// Every completed read appends one record to the trace.
static_assert(sizeof(sim::ReadRecord) == 48, "five ids, a flag and three 8-byte fields");

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

/// What one measured call allocated: blocks, and the bytes they asked for.
struct Footprint {
  double allocations = 0;
  double bytes = 0;
};

template <typename Fn>
Footprint measure(Fn&& fn) {
  AllocationCounter counter;
  fn();
  return {static_cast<double>(counter.count()), static_cast<double>(counter.bytes())};
}

TEST(AllocationFootprint, LayoutSizesItsTablesOnce) {
  dfs::NameNode nn(dfs::Topology::single_rack(kNodes), 3, kDefaultChunkSize);
  Rng rng(9);
  const Footprint f = measure([&] { store_layout(nn, rng); });
  ASSERT_EQ(nn.chunk_count(), kChunks);
  RecordProperty("allocations_per_chunk", std::to_string(f.allocations / kChunks));
  RecordProperty("bytes_per_chunk", std::to_string(f.bytes / kChunks));
  EXPECT_LT(f.allocations / kChunks, 0.05) << f.allocations << " allocations";
  EXPECT_LT(f.bytes / kChunks, 80.0) << f.bytes << " bytes";
}

TEST(AllocationFootprint, ManyOneChunkFilesGrowGeometrically) {
  // One chunk per create_file call: sizing the tables per call must cost no
  // more than growing them one entry at a time, as the layout did before it
  // sized them (1.642 allocations and 429.5 bytes per chunk). Scratch
  // allocated per call, such as a node-count array, costs 4 KiB a file.
  constexpr std::uint32_t kFiles = 10000;
  dfs::NameNode nn(dfs::Topology::single_rack(kNodes), 3, kDefaultChunkSize);
  Rng rng(9);
  dfs::RandomPlacement policy;
  const std::string name = "part";
  const Footprint f = measure([&] {
    for (std::uint32_t i = 0; i < kFiles; ++i)
      nn.create_file(name, nn.chunk_size(), policy, rng);
  });
  ASSERT_EQ(nn.chunk_count(), kFiles);
  RecordProperty("allocations_per_chunk", std::to_string(f.allocations / kFiles));
  RecordProperty("bytes_per_chunk", std::to_string(f.bytes / kFiles));
  EXPECT_LE(f.allocations / kFiles, 1.65) << f.allocations << " allocations";
  EXPECT_LE(f.bytes / kFiles, 430.0) << f.bytes << " bytes";
}

TEST(AllocationFootprint, SingleInputTasksAreOneBlock) {
  dfs::NameNode nn(dfs::Topology::single_rack(kNodes), 3, kDefaultChunkSize);
  Rng rng(9);
  const std::vector<dfs::FileId> files{store_layout(nn, rng)};
  std::vector<runtime::Task> tasks;
  const Footprint f = measure([&] { tasks = runtime::single_input_tasks(nn, files); });
  ASSERT_EQ(tasks.size(), kChunks);
  RecordProperty("bytes_per_task", std::to_string(f.bytes / kChunks));
  EXPECT_LE(f.allocations, 2.0);
  EXPECT_LE(f.bytes / kChunks, 48.0) << f.bytes << " bytes";
}

TEST(AllocationFootprint, ClusterBuildsNoPerNodeQueue) {
  std::optional<sim::Cluster> cluster;
  const Footprint f = measure([&] { cluster.emplace(kNodes); });
  RecordProperty("allocations", std::to_string(f.allocations));
  EXPECT_LT(f.allocations, 64.0);
}

// The completion heap holds one estimate per moving flow, so it never grows
// past the 1,024 concurrent reads; a lazily invalidated heap, which also kept
// every superseded estimate, asked for 113.0 B per read here.
TEST(AllocationFootprint, BaselineExecutionStaysBelow108BytesPerRead) {
  dfs::NameNode nn(dfs::Topology::single_rack(kNodes), 3, kDefaultChunkSize);
  Rng rng(9);
  const dfs::FileId file = store_layout(nn, rng);
  const auto tasks = runtime::single_input_tasks(nn, {file});
  const auto assignment = runtime::rank_interval_assignment(kChunks, kNodes);
  sim::Cluster cluster(kNodes);
  runtime::StaticAssignmentSource source(assignment);
  Rng exec_rng(3);
  runtime::ExecutionResult result;
  const Footprint f =
      measure([&] { result = runtime::execute(cluster, nn, tasks, source, exec_rng); });
  ASSERT_EQ(result.trace.size(), kChunks);
  RecordProperty("bytes_per_read", std::to_string(f.bytes / kChunks));
  EXPECT_LT(f.bytes / kChunks, 108.0) << f.bytes << " bytes";
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
    ws.network.build(2 + m + n, [&](graph::FlowNetwork::Builder& edges) {
      for (graph::NodeIdx p = 0; p < m; ++p) edges.add_edge(0, 2 + p, quotas[p]);
      for (graph::NodeIdx task = 0; task < n; ++task)
        for (dfs::NodeId node : holders[task]) edges.add_edge(2 + node, 2 + m + task, 1);
      for (graph::NodeIdx task = 0; task < n; ++task) edges.add_edge(2 + m + task, 1, 1);
    });
  }

  /// The same locality edges, task-major in replica order, for solve_fig5.
  std::function<void(const core::Fig5Edges&)> locality_edges() const {
    return [this](const core::Fig5Edges& edge) {
      for (std::uint32_t task = 0; task < holders.size(); ++task)
        for (dfs::NodeId node : holders[task]) edge(node, task);
    };
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
  const auto emit = instance.locality_edges();
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

TEST(AllocationFootprint, ColdFig5SolveStaysBelow48BytesPerEdge) {
  // A cold solve writes its network straight into exact-size CSR rows and
  // keeps no edge list beside them: 36 bytes of arcs per edge, the per-node
  // rows, the solver's per-node scratch and the owner vector.
  const Fig5Instance instance;
  const auto n = static_cast<std::uint32_t>(instance.holders.size());
  const auto emit = instance.locality_edges();
  graph::FlowWorkspace ws;
  std::vector<std::uint32_t> owner;
  const Footprint f = measure([&] { owner = core::solve_fig5(ws, instance.quotas, n, emit); });
  const auto edges = static_cast<double>(ws.network.edge_count());
  RecordProperty("bytes_per_edge", std::to_string(f.bytes / edges));
  RecordProperty("allocations", std::to_string(f.allocations));
  EXPECT_EQ(owner.size(), n);
  EXPECT_LE(f.bytes / edges, 48.0) << f.bytes << " bytes for " << edges << " edges";
  EXPECT_LE(f.allocations, 20.0);
}

/// The repository benchmark's sinks-on shape: 4,096 one-chunk tasks on 512
/// nodes at r = 3 (seed 9), read by the rank-interval baseline, one process
/// per node, with every read's breakdown recorded.
struct SinksRun {
  static constexpr std::uint32_t kNodes = 512;
  static constexpr std::uint32_t kTasks = 4096;

  dfs::NameNode nn{dfs::Topology::single_rack(kNodes), 3, kDefaultChunkSize};
  std::vector<runtime::Task> tasks;
  runtime::Assignment assignment;

  SinksRun() {
    Rng rng(9);
    dfs::RandomPlacement policy;
    const dfs::FileId file =
        nn.create_file("dataset", Bytes{kTasks} * nn.chunk_size(), policy, rng);
    tasks = runtime::single_input_tasks(nn, {file});
    assignment = runtime::rank_interval_assignment(kTasks, kNodes);
  }

  runtime::ExecutionResult execute(sim::Cluster& cluster, Probe* probe) const {
    runtime::StaticAssignmentSource source(assignment);
    Rng exec_rng(3);
    runtime::ExecutorConfig config;
    config.record_read_breakdown = true;
    config.probe = probe;
    return runtime::execute(cluster, nn, tasks, source, exec_rng, config);
  }
};

TEST(AllocationCount, ExecutionSpansStayBelowATenthOfAnAllocationPerSpan) {
  const SinksRun run;
  sim::Cluster cluster(SinksRun::kNodes);
  const runtime::ExecutionResult exec = run.execute(cluster, nullptr);
  obs::SpanLog log;
  const Footprint f = measure([&] { obs::append_execution_spans(log, exec, run.tasks, cluster); });
  ASSERT_EQ(log.size(), 2u * SinksRun::kTasks);  // a task span and a read span per task
  const double per_span = f.allocations / static_cast<double>(log.size());
  RecordProperty("allocations_per_span", std::to_string(per_span));
  EXPECT_LT(per_span, 0.1) << f.allocations << " allocations for " << log.size() << " spans";
}

TEST(AllocationCount, CollectorsStayBelow2_5AllocationsPerMetric) {
  const SinksRun run;
  sim::Cluster cluster(SinksRun::kNodes);
  const runtime::ExecutionResult exec = run.execute(cluster, nullptr);
  obs::MetricsRegistry registry;
  const Footprint f = measure([&] {
    obs::collect_execution(registry, exec, SinksRun::kNodes, "baseline.executor");
    obs::collect_cluster(registry, cluster, "baseline.cluster");
  });
  const double per_metric = f.allocations / static_cast<double>(registry.size());
  RecordProperty("allocations_per_metric", std::to_string(per_metric));
  EXPECT_LT(per_metric, 2.5) << f.allocations << " allocations for " << registry.size()
                             << " metrics";
}

TEST(AllocationCount, RunTimelineStaysBelow2_5AllocationsPerSeries) {
  // Registration, plus what recording adds to the same execution run
  // without a timeline.
  const SinksRun run;
  sim::Cluster plain_cluster(SinksRun::kNodes);
  const Footprint plain = measure([&] { run.execute(plain_cluster, nullptr); });
  sim::Cluster cluster(SinksRun::kNodes);
  obs::TimelineRecorder recorder;
  const Footprint timed = measure([&] {
    obs::RunTimeline timeline(&recorder, cluster, SinksRun::kNodes);
    timeline.add_expected_bytes(runtime::total_task_bytes(run.nn, run.tasks));
    run.execute(cluster, timeline.executor_probe());
    timeline.finish();
  });
  ASSERT_EQ(recorder.series_count(), 3u * SinksRun::kNodes + 5);
  ASSERT_GT(recorder.tick_count(), 64u);  // the samples span more than one block
  const double per_series =
      (timed.allocations - plain.allocations) / static_cast<double>(recorder.series_count());
  RecordProperty("allocations_per_series", std::to_string(per_series));
  EXPECT_LT(per_series, 2.5) << timed.allocations - plain.allocations << " allocations for "
                             << recorder.series_count() << " series";
}

}  // namespace
}  // namespace opass
