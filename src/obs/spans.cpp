#include "obs/spans.hpp"

#include <algorithm>
#include <cmath>

#include "common/require.hpp"
#include "common/reserve.hpp"
#include "opass/process_index.hpp"

namespace opass::obs {

const char* span_kind_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kTask: return "task";
    case SpanKind::kRead: return "read";
    case SpanKind::kWait: return "wait";
    case SpanKind::kQueue: return "queue";
    case SpanKind::kPlan: return "plan";
  }
  return "?";
}

const char* attr_kind_name(AttrKind kind) {
  switch (kind) {
    case AttrKind::kQueueWait: return "queue_wait";
    case AttrKind::kSeek: return "seek";
    case AttrKind::kSrcDisk: return "src_disk";
    case AttrKind::kSrcNic: return "src_nic";
    case AttrKind::kDstNic: return "dst_nic";
    case AttrKind::kRackUplink: return "rack_uplink";
    case AttrKind::kRackDownlink: return "rack_downlink";
    case AttrKind::kStreamCap: return "stream_cap";
    case AttrKind::kDegraded: return "degraded";
    case AttrKind::kCompute: return "compute";
    case AttrKind::kBarrier: return "barrier";
    case AttrKind::kOther: return "other";
  }
  return "?";
}

const char* span_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kTask: return "exec.task.run";
    case SpanKind::kRead: return "exec.read.serve";
    case SpanKind::kWait: return "exec.wave.wait";
    case SpanKind::kQueue: return "svc.job.queue";
    case SpanKind::kPlan: return "svc.job.plan";
  }
  return "?";
}

std::uint32_t SpanLog::add(Span span, std::span<const AttrSlice> slices) {
  OPASS_REQUIRE(span.end_ticks >= span.start_ticks, "span must not end before it starts");
  OPASS_REQUIRE(span.parent == kNoSpan || span.parent < spans_.size(),
                "span parent must be a previously added span");
  if (!slices.empty()) {
    // The reconciliation invariant: slices chain gap-free from the span's
    // start to its end, so their integer durations telescope exactly to the
    // span duration. This is what makes attribution sums trustworthy.
    std::int64_t cursor = span.start_ticks;
    for (const AttrSlice& s : slices) {
      OPASS_REQUIRE(s.start_ticks == cursor, "breakdown slices must chain gap-free");
      OPASS_REQUIRE(s.end_ticks >= s.start_ticks, "breakdown slice must not be negative");
      cursor = s.end_ticks;
    }
    OPASS_REQUIRE(cursor == span.end_ticks,
                  "breakdown must close exactly at the span end");
  }
  span.id = static_cast<std::uint32_t>(spans_.size());
  span.first_slice = static_cast<std::uint32_t>(slices_.size());
  span.slice_count = static_cast<std::uint32_t>(slices.size());
  slices_.insert(slices_.end(), slices.begin(), slices.end());
  max_end_ticks_ = std::max(max_end_ticks_, span.end_ticks);
  spans_.push_back(span);
  return spans_.back().id;
}

void SpanLog::reserve(std::size_t spans, std::size_t slices) {
  reserve_total(spans_, spans_.size() + spans);
  reserve_total(slices_, slices_.size() + slices);
}

namespace {

/// Append a slice, merging into the previous one when kind and blamed node
/// match (water-filling can re-pin the same constraint across re-levels).
/// Slices below `floor` belong to an earlier read and are never merged into.
void push_slice(std::vector<AttrSlice>& slices, AttrKind kind, dfs::NodeId node,
                std::int64_t start, std::int64_t end, std::size_t floor = 0) {
  if (end <= start) return;
  if (slices.size() > floor && slices.back().kind == kind && slices.back().node == node &&
      slices.back().end_ticks == start) {
    slices.back().end_ticks = end;
    return;
  }
  slices.push_back({kind, node, start, end});
}

/// Was `node` running at reduced speed at tick `t`? Replays the cluster's
/// degrade/restore event log (chronological by construction); the last event
/// at or before `t` wins.
bool degraded_at(const std::vector<sim::SpeedChange>& changes, dfs::NodeId node,
                 std::int64_t t) {
  double factor = 1.0;
  for (const sim::SpeedChange& c : changes) {
    if (c.ticks > t) break;
    if (c.node == node) factor = c.factor;
  }
  return factor < 1.0;
}

/// Classify one binding-resource interval of a read's transfer into its
/// causal bucket. A binding resource owned by a degraded node is charged to
/// kDegraded — the slow node, not the hardware role, is the story there.
AttrSlice classify_interval(const sim::BindingInterval& bi, const sim::Cluster& cluster,
                            dfs::NodeId server) {
  AttrSlice s;
  s.start_ticks = bi.start_ticks;
  s.end_ticks = bi.end_ticks;
  if (bi.resource == sim::kCapBinding) {
    s.kind = AttrKind::kStreamCap;
    return s;
  }
  const sim::ResourceInfo info = cluster.resource_info(bi.resource);
  switch (info.role) {
    case sim::ResourceRole::kDisk:
    case sim::ResourceRole::kNicIn:
    case sim::ResourceRole::kNicOut:
      s.node = info.owner;
      if (degraded_at(cluster.speed_changes(), info.owner, bi.start_ticks)) {
        s.kind = AttrKind::kDegraded;
      } else if (info.role == sim::ResourceRole::kDisk) {
        s.kind = info.owner == server ? AttrKind::kSrcDisk : AttrKind::kOther;
      } else if (info.role == sim::ResourceRole::kNicOut) {
        s.kind = info.owner == server ? AttrKind::kSrcNic : AttrKind::kOther;
      } else {
        s.kind = AttrKind::kDstNic;
      }
      return s;
    case sim::ResourceRole::kRackUp:
      s.kind = AttrKind::kRackUplink;
      return s;
    case sim::ResourceRole::kRackDown:
      s.kind = AttrKind::kRackDownlink;
      return s;
  }
  return s;
}

/// Append the exact tiling of one read span [issue, end] to `out`: admission
/// wait, positioning, then the transfer's classified binding intervals.
/// Defensive kOther gap fill keeps the tiling invariant even for degenerate
/// inputs (zero-byte transfers have no intervals at all).
void append_read_slices(std::vector<AttrSlice>& out, const sim::ReadBreakdown& rb,
                        const sim::Cluster& cluster, dfs::NodeId server) {
  const std::size_t floor = out.size();
  push_slice(out, AttrKind::kQueueWait, server, rb.issue_ticks, rb.admit_ticks, floor);
  push_slice(out, AttrKind::kSeek, server, rb.admit_ticks, rb.transfer_start_ticks, floor);
  std::int64_t cursor = rb.transfer_start_ticks;
  for (const sim::BindingInterval& bi : rb.transfer) {
    if (bi.start_ticks > cursor)
      push_slice(out, AttrKind::kOther, dfs::kInvalidNode, cursor, bi.start_ticks, floor);
    const AttrSlice c = classify_interval(bi, cluster, server);
    push_slice(out, c.kind, c.node, c.start_ticks, c.end_ticks, floor);
    cursor = std::max(cursor, bi.end_ticks);
  }
  if (rb.end_ticks > cursor)
    push_slice(out, AttrKind::kOther, dfs::kInvalidNode, cursor, rb.end_ticks, floor);
}

std::int64_t compute_ticks_of(const runtime::Task& task) {
  return task.compute_time > 0 ? std::llround(task.compute_time * 1e9) : 0;
}

}  // namespace

void append_execution_spans(SpanLog& log, const runtime::ExecutionResult& exec,
                            const std::vector<runtime::Task>& tasks,
                            const sim::Cluster& cluster) {
  const auto& records = exec.trace.records();
  OPASS_REQUIRE(exec.read_breakdowns.size() == records.size(),
                "execution spans need each read's breakdown: run the execution with "
                "ExecutorConfig::record_read_breakdown");

  // Group read records under their task (ReadRecord::task) in one CSR
  // table, each task's reads ordered by issue time (completion order equals
  // issue order for the sequential per-task reads; the insertion sort,
  // stable on record order, makes it explicit).
  const auto task_count = static_cast<std::uint32_t>(tasks.size());
  core::Adjacency by_task = core::group_by_column(task_count, [&](const auto& emit) {
    for (std::uint32_t i = 0; i < records.size(); ++i)
      if (records[i].task < task_count) emit(i, records[i].task);
  });
  for (std::uint32_t t = 0; t < task_count; ++t) {
    std::uint32_t* reads = by_task.items.data() + by_task.offset[t];
    for (std::uint32_t i = 1; i < by_task.row(t).size(); ++i)
      for (std::uint32_t j = i;
           j > 0 && records[reads[j]].issue_time < records[reads[j - 1]].issue_time; --j)
        std::swap(reads[j], reads[j - 1]);
  }

  // Task spans per process, in start order (completion order interleaves
  // processes; spans of one process are disjoint except under prefetch).
  std::vector<runtime::TaskSpan> ordered = exec.task_spans;
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const runtime::TaskSpan& a, const runtime::TaskSpan& b) {
                     if (a.process != b.process) return a.process < b.process;
                     if (a.start != b.start) return a.start < b.start;
                     return a.end < b.end;
                   });

  // Reserve the log once: one wait span per gap, a span per task and per
  // read; slices at most one per wait, and per read its admission, seek, a
  // gap before and after each binding interval and the interval itself —
  // once in the read's span, once more (plus a gap) in its task's tiling —
  // plus a task's two trailing slices.
  std::size_t waits = 0;
  for (std::size_t i = 1; i < ordered.size(); ++i)
    if (ordered[i - 1].process == ordered[i].process &&
        sim::to_ticks(ordered[i - 1].end) < sim::to_ticks(ordered[i].start))
      ++waits;
  std::size_t slice_bound = waits + 2 * ordered.size();
  for (const sim::ReadBreakdown& rb : exec.read_breakdowns)
    slice_bound += 2 * (3 + 2 * rb.transfer.size()) + 1;
  log.reserve(waits + ordered.size() + records.size(), slice_bound);

  // Reused per task: its reads' slices, classified once (read j's are
  // read_slices[read_first[j], read_first[j + 1])), and its own tiling.
  std::vector<AttrSlice> read_slices;
  std::vector<std::uint32_t> read_first;
  std::vector<AttrSlice> task_slices;
  for (std::size_t i = 0; i < ordered.size(); ++i) {
    const runtime::TaskSpan& ts = ordered[i];
    OPASS_REQUIRE(ts.process < exec.process_node.size(), "task span of an unknown process");
    const dfs::NodeId node = exec.process_node[ts.process];
    const std::int64_t start = sim::to_ticks(ts.start);
    const std::int64_t end = sim::to_ticks(ts.end);

    // Gap to the previous task on this process: a wait span (a
    // dynamic-source retry window).
    if (i > 0 && ordered[i - 1].process == ts.process) {
      const std::int64_t prev_end = sim::to_ticks(ordered[i - 1].end);
      if (prev_end < start) {
        Span wait;
        wait.kind = SpanKind::kWait;
        wait.process = ts.process;
        wait.node = node;
        wait.start_ticks = prev_end;
        wait.end_ticks = start;
        const AttrSlice barrier{AttrKind::kBarrier, dfs::kInvalidNode, prev_end, start};
        log.add(wait, {&barrier, 1});
      }
    }

    const std::span<const std::uint32_t> reads =
        ts.task < task_count ? by_task.row(ts.task) : std::span<const std::uint32_t>();
    read_slices.clear();
    read_first.clear();
    for (std::uint32_t rec_idx : reads) {
      read_first.push_back(static_cast<std::uint32_t>(read_slices.size()));
      append_read_slices(read_slices, exec.read_breakdowns[rec_idx], cluster,
                         records[rec_idx].serving_node);
    }
    read_first.push_back(static_cast<std::uint32_t>(read_slices.size()));

    // Assemble the task's exact tiling from its reads' slices; abandoned
    // (single kOther slice) when reads overlap the span non-sequentially,
    // which is exactly the prefetch case.
    task_slices.clear();
    std::int64_t cursor = start;
    bool exact = true;
    for (std::size_t j = 0; j < reads.size(); ++j) {
      const sim::ReadBreakdown& rb = exec.read_breakdowns[reads[j]];
      if (rb.issue_ticks < cursor || rb.end_ticks > end) {
        exact = false;
        break;
      }
      if (rb.issue_ticks > cursor)
        push_slice(task_slices, AttrKind::kOther, dfs::kInvalidNode, cursor, rb.issue_ticks);
      for (std::uint32_t k = read_first[j]; k < read_first[j + 1]; ++k) {
        const AttrSlice& s = read_slices[k];
        push_slice(task_slices, s.kind, s.node, s.start_ticks, s.end_ticks);
      }
      cursor = rb.end_ticks;
    }
    if (exact && cursor <= end) {
      const std::int64_t residual = end - cursor;
      const std::int64_t compute =
          ts.task < task_count ? compute_ticks_of(tasks[ts.task]) : 0;
      if (residual > 0) {
        // The residual after the last read is the compute phase; anything
        // beyond the declared compute time (± a rounding tick) is a
        // scheduling wait (the prefetch cycle join).
        if (residual <= compute + 1) {
          push_slice(task_slices, AttrKind::kCompute, dfs::kInvalidNode, cursor, end);
        } else {
          push_slice(task_slices, AttrKind::kOther, dfs::kInvalidNode, cursor, end - compute);
          push_slice(task_slices, AttrKind::kCompute, dfs::kInvalidNode, end - compute, end);
        }
      }
    } else {
      task_slices.clear();
      if (end > start) task_slices.push_back({AttrKind::kOther, dfs::kInvalidNode, start, end});
    }

    Span task_span;
    task_span.kind = SpanKind::kTask;
    task_span.process = ts.process;
    task_span.task = ts.task;
    task_span.node = node;
    task_span.start_ticks = start;
    task_span.end_ticks = end;
    const std::uint32_t task_id = log.add(task_span, task_slices);

    for (std::size_t j = 0; j < reads.size(); ++j) {
      const sim::ReadRecord& rec = records[reads[j]];
      const sim::ReadBreakdown& rb = exec.read_breakdowns[reads[j]];
      Span read;
      read.parent = task_id;
      read.kind = SpanKind::kRead;
      read.process = rec.process;
      read.task = rec.task;
      read.node = rec.reader_node;
      read.server = rec.serving_node;
      read.chunk = rec.chunk;
      read.bytes = rec.bytes;
      read.start_ticks = rb.issue_ticks;
      read.end_ticks = rb.end_ticks;
      log.add(read, std::span<const AttrSlice>(read_slices)
                        .subspan(read_first[j], read_first[j + 1] - read_first[j]));
    }
  }
}

void append_service_spans(SpanLog& log, const std::vector<core::JobStatus>& statuses) {
  for (const core::JobStatus& s : statuses) {
    if (s.state != core::JobState::kPlanned && s.state != core::JobState::kCompleted)
      continue;
    const std::int64_t arrival = sim::to_ticks(s.arrival);
    const std::int64_t planned = sim::to_ticks(s.planned_at);
    Span queue;
    queue.kind = SpanKind::kQueue;
    queue.process = static_cast<std::uint32_t>(s.tenant);
    queue.task = static_cast<std::uint32_t>(s.id);
    queue.start_ticks = arrival;
    queue.end_ticks = planned;
    const AttrSlice wait{AttrKind::kQueueWait, dfs::kInvalidNode, arrival, planned};
    log.add(queue, planned > arrival ? std::span(&wait, 1) : std::span<const AttrSlice>());

    Span plan;
    plan.kind = SpanKind::kPlan;
    plan.process = static_cast<std::uint32_t>(s.tenant);
    plan.task = static_cast<std::uint32_t>(s.id);
    plan.start_ticks = planned;
    plan.end_ticks = planned;
    log.add(plan);
  }
}

}  // namespace opass::obs
