// Causal span log (DESIGN.md §13): virtual-time spans for every task, read
// and service job, where read spans carry a *bottleneck attribution
// breakdown* — which constraint (source disk, source NIC, destination NIC,
// rack uplink, stream cap, slow node) the flow simulator's max-min
// water-filling pinned the transfer's rate at, interval by interval. This is
// the paper's causal story made machine-checkable: not just "node 7 served
// 8 chunks" but "task 42's read was disk-bound on node 7 for 3.1 s of its
// 3.8 s".
//
// Exactness contract: all span arithmetic happens on integer nanosecond
// ticks (sim::to_ticks). A span's breakdown slices chain — each slice closes
// exactly where the next opens, the first opens at the span's start and the
// last closes at its end — so slice durations sum *bit-exactly* to the span
// duration (SpanLog::add enforces this; the spans_reconcile tests and the
// cli_span_byte_identical ctest gate it end to end). Because the underlying doubles
// are byte-identical across replays (the program is single-threaded, DESIGN.md
// §12), the span log and everything derived from it (obs/attribution.hpp)
// exports byte-identically too.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "opass/planner.hpp"
#include "runtime/executor.hpp"
#include "sim/cluster.hpp"

namespace opass::obs {

/// What a span measures. Task/read spans come from executions, queue/plan
/// spans from the planning service, wait spans from inter-task gaps
/// (dynamic-source retry waits).
enum class SpanKind : std::uint8_t { kTask, kRead, kWait, kQueue, kPlan };
const char* span_kind_name(SpanKind kind);

/// Causal buckets a span's time decomposes into. The transfer buckets mirror
/// the paper's contention taxonomy (Fig. 3/4: hot disks and NICs), plus the
/// admission/positioning phases and the scheduling-side buckets.
enum class AttrKind : std::uint8_t {
  kQueueWait,     ///< admission FIFO (xceiver gate) or service queue wait
  kSeek,          ///< positioning latency phase of a read
  kSrcDisk,       ///< serving node's disk bound the transfer rate
  kSrcNic,        ///< serving node's egress NIC bound it
  kDstNic,        ///< reader's ingress NIC bound it
  kRackUplink,    ///< source rack's shared uplink bound it
  kRackDownlink,  ///< destination rack's shared downlink bound it
  kStreamCap,     ///< the single-stream protocol cap bound it
  kDegraded,      ///< binding resource's owner node was running slow
  kCompute,       ///< task compute phase
  kBarrier,       ///< idle between two tasks of one process (a wait span)
  kOther,         ///< unattributed (retry windows, prefetch overlap, idle)
};
inline constexpr std::size_t kAttrKindCount = 12;
const char* attr_kind_name(AttrKind kind);

/// Sentinel ids for span fields that do not apply.
inline constexpr std::uint32_t kNoSpan = UINT32_MAX;
inline constexpr std::uint32_t kNoTask = UINT32_MAX;

/// One attributed slice of a span: over [start_ticks, end_ticks) its time is
/// charged to `kind`, blamed on `node` (the serving node for src buckets,
/// the reader for kDstNic; dfs::kInvalidNode when no node is to blame).
struct AttrSlice {
  AttrKind kind = AttrKind::kOther;
  dfs::NodeId node = dfs::kInvalidNode;
  std::int64_t start_ticks = 0;
  std::int64_t end_ticks = 0;

  std::int64_t duration_ticks() const { return end_ticks - start_ticks; }
};

/// One span. Names follow the repo's layer.noun.verb taxonomy (exactly three
/// [a-z0-9_] segments, e.g. exec.task.run — the span-name lint rule).
struct Span {
  std::uint32_t id = kNoSpan;      ///< assigned by SpanLog::add
  std::uint32_t parent = kNoSpan;  ///< enclosing span (reads nest in tasks)
  SpanKind kind = SpanKind::kTask;
  std::string name;
  /// Executor process rank for exec spans; tenant id for service spans.
  std::uint32_t process = 0;
  std::uint32_t task = kNoTask;  ///< runtime::TaskId / core::JobId
  dfs::NodeId node = dfs::kInvalidNode;    ///< node the span ran on (reader)
  dfs::NodeId server = dfs::kInvalidNode;  ///< read spans: serving node
  std::uint32_t chunk = UINT32_MAX;        ///< read spans: chunk id
  Bytes bytes = 0;                         ///< read spans: payload
  std::int64_t start_ticks = 0;
  std::int64_t end_ticks = 0;
  /// When non-empty: an exact tiling of [start_ticks, end_ticks] — chained,
  /// gap-free, verified on add().
  std::vector<AttrSlice> breakdown;

  std::int64_t duration_ticks() const { return end_ticks - start_ticks; }
};

/// True for exactly three dot-separated segments of [a-z0-9_]+, each
/// starting with a letter (the layer.noun.verb taxonomy).
bool valid_span_name(const std::string& name);

/// Append-only log of spans, in deterministic build order. add() enforces
/// the naming taxonomy and the breakdown reconciliation invariant, so a
/// SpanLog can never hold a slice set that fails to sum to its span.
class SpanLog {
 public:
  /// Validate and append; returns the span's id.
  std::uint32_t add(Span span);

  const std::vector<Span>& spans() const { return spans_; }
  std::size_t size() const { return spans_.size(); }
  bool empty() const { return spans_.empty(); }

  /// Latest end tick across all spans (0 when empty) — the makespan once
  /// execution spans are appended.
  std::int64_t max_end_ticks() const { return max_end_ticks_; }

  /// Ticks -> display seconds (rendering only; never used for arithmetic).
  static Seconds seconds(std::int64_t ticks) {
    return static_cast<double>(ticks) * 1e-9;
  }

 private:
  std::vector<Span> spans_;
  std::int64_t max_end_ticks_ = 0;
};

/// Build the exec-layer spans of one finished execution into `log`: per
/// process in rank order, interleaved in time order — a wait span for every
/// inter-task gap, a task span per executed task on its process's node
/// (ExecutionResult::process_node; breakdown: the reads' slices, retry gaps
/// as kOther, the trailing compute slice), and a child read span per
/// completed read (breakdown: admission wait, positioning, classified
/// binding-resource intervals). Requires the execution to have run with
/// ExecutorConfig::record_read_breakdown on `cluster`, and throws
/// std::invalid_argument otherwise. The cluster provides the resource role
/// map and the degradation event log for slow-node classification.
void append_execution_spans(SpanLog& log, const runtime::ExecutionResult& exec,
                            const std::vector<runtime::Task>& tasks,
                            const sim::Cluster& cluster);

/// Append the service-layer spans of planned jobs: per job (in status
/// order) a svc.job.queue span [arrival, planned_at] charged to kQueueWait
/// and a zero-width svc.job.plan mark at the batch cut. The span's
/// `process` field carries the tenant id, `task` the job id — which is what
/// makes per-tenant queue-wait aggregation (ROADMAP's co-simulation item)
/// fall out of the generic attribution sums.
void append_service_spans(SpanLog& log, const std::vector<core::JobStatus>& statuses);

}  // namespace opass::obs
