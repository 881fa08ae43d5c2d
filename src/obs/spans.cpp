#include "obs/spans.hpp"

#include <algorithm>
#include <cmath>

#include "common/require.hpp"

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

bool valid_span_name(const std::string& name) {
  std::size_t segments = 0;
  std::size_t seg_len = 0;
  for (char c : name) {
    if (c == '.') {
      if (seg_len == 0) return false;
      ++segments;
      seg_len = 0;
      continue;
    }
    const bool letter = c >= 'a' && c <= 'z';
    const bool tail = letter || (c >= '0' && c <= '9') || c == '_';
    if (seg_len == 0 ? !letter : !tail) return false;
    ++seg_len;
  }
  if (seg_len == 0) return false;
  return segments == 2;  // exactly three segments: layer.noun.verb
}

std::uint32_t SpanLog::add(Span span) {
  OPASS_REQUIRE(valid_span_name(span.name),
                "span name must be layer.noun.verb ([a-z0-9_], 3 segments)");
  OPASS_REQUIRE(span.end_ticks >= span.start_ticks, "span must not end before it starts");
  OPASS_REQUIRE(span.parent == kNoSpan || span.parent < spans_.size(),
                "span parent must be a previously added span");
  if (!span.breakdown.empty()) {
    // The reconciliation invariant: slices chain gap-free from the span's
    // start to its end, so their integer durations telescope exactly to the
    // span duration. This is what makes attribution sums trustworthy.
    std::int64_t cursor = span.start_ticks;
    for (const AttrSlice& s : span.breakdown) {
      OPASS_REQUIRE(s.start_ticks == cursor, "breakdown slices must chain gap-free");
      OPASS_REQUIRE(s.end_ticks >= s.start_ticks, "breakdown slice must not be negative");
      cursor = s.end_ticks;
    }
    OPASS_REQUIRE(cursor == span.end_ticks,
                  "breakdown must close exactly at the span end");
  }
  span.id = static_cast<std::uint32_t>(spans_.size());
  max_end_ticks_ = std::max(max_end_ticks_, span.end_ticks);
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

namespace {

/// Append a slice, merging into the previous one when kind and blamed node
/// match (water-filling can re-pin the same constraint across re-levels).
void push_slice(std::vector<AttrSlice>& slices, AttrKind kind, dfs::NodeId node,
                std::int64_t start, std::int64_t end) {
  if (end <= start) return;
  if (!slices.empty() && slices.back().kind == kind && slices.back().node == node &&
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

/// Exact tiling of one read span [issue, end]: admission wait, positioning,
/// then the transfer's classified binding intervals. Defensive kOther gap
/// fill keeps the tiling invariant even for degenerate inputs (zero-byte
/// transfers have no intervals at all).
std::vector<AttrSlice> read_slices(const sim::ReadBreakdown& rb, const sim::Cluster& cluster,
                                   dfs::NodeId server) {
  std::vector<AttrSlice> slices;
  push_slice(slices, AttrKind::kQueueWait, server, rb.issue_ticks, rb.admit_ticks);
  push_slice(slices, AttrKind::kSeek, server, rb.admit_ticks, rb.transfer_start_ticks);
  std::int64_t cursor = rb.transfer_start_ticks;
  for (const sim::BindingInterval& bi : rb.transfer) {
    if (bi.start_ticks > cursor)
      push_slice(slices, AttrKind::kOther, dfs::kInvalidNode, cursor, bi.start_ticks);
    const AttrSlice c = classify_interval(bi, cluster, server);
    push_slice(slices, c.kind, c.node, c.start_ticks, c.end_ticks);
    cursor = std::max(cursor, bi.end_ticks);
  }
  if (rb.end_ticks > cursor)
    push_slice(slices, AttrKind::kOther, dfs::kInvalidNode, cursor, rb.end_ticks);
  return slices;
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

  // Group read records under their task (ReadRecord::task), each task's
  // reads ordered by issue time (completion order equals issue order for the
  // sequential per-task reads; the sort makes it explicit).
  std::vector<std::vector<std::uint32_t>> task_reads(tasks.size());
  for (std::uint32_t i = 0; i < records.size(); ++i)
    if (records[i].task < task_reads.size()) task_reads[records[i].task].push_back(i);
  for (auto& reads : task_reads)
    std::stable_sort(reads.begin(), reads.end(), [&](std::uint32_t a, std::uint32_t b) {
      return records[a].issue_time < records[b].issue_time;
    });

  // Task spans per process, in start order (completion order interleaves
  // processes; spans of one process are disjoint except under prefetch).
  std::vector<runtime::TaskSpan> ordered = exec.task_spans;
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const runtime::TaskSpan& a, const runtime::TaskSpan& b) {
                     if (a.process != b.process) return a.process < b.process;
                     if (a.start != b.start) return a.start < b.start;
                     return a.end < b.end;
                   });

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
        wait.name = "exec.wave.wait";
        wait.process = ts.process;
        wait.node = node;
        wait.start_ticks = prev_end;
        wait.end_ticks = start;
        wait.breakdown.push_back({AttrKind::kBarrier, dfs::kInvalidNode, prev_end, start});
        log.add(std::move(wait));
      }
    }

    // Assemble the task's exact tiling from its reads' slices; abandoned
    // (single kOther slice) when reads overlap the span non-sequentially,
    // which is exactly the prefetch case.
    static const std::vector<std::uint32_t> kNoReads;
    const auto& reads = ts.task < task_reads.size() ? task_reads[ts.task] : kNoReads;
    std::vector<AttrSlice> slices;
    std::int64_t cursor = start;
    bool exact = true;
    for (std::uint32_t rec_idx : reads) {
      const sim::ReadBreakdown& rb = exec.read_breakdowns[rec_idx];
      if (rb.issue_ticks < cursor || rb.end_ticks > end) {
        exact = false;
        break;
      }
      if (rb.issue_ticks > cursor)
        push_slice(slices, AttrKind::kOther, dfs::kInvalidNode, cursor, rb.issue_ticks);
      for (const AttrSlice& s : read_slices(rb, cluster, records[rec_idx].serving_node))
        push_slice(slices, s.kind, s.node, s.start_ticks, s.end_ticks);
      cursor = rb.end_ticks;
    }
    if (exact && cursor <= end) {
      const std::int64_t residual = end - cursor;
      const std::int64_t compute =
          ts.task < tasks.size() ? compute_ticks_of(tasks[ts.task]) : 0;
      if (residual > 0) {
        // The residual after the last read is the compute phase; anything
        // beyond the declared compute time (± a rounding tick) is a
        // scheduling wait (the prefetch cycle join).
        if (residual <= compute + 1) {
          push_slice(slices, AttrKind::kCompute, dfs::kInvalidNode, cursor, end);
        } else {
          push_slice(slices, AttrKind::kOther, dfs::kInvalidNode, cursor, end - compute);
          push_slice(slices, AttrKind::kCompute, dfs::kInvalidNode, end - compute, end);
        }
      }
    } else {
      slices.clear();
      if (end > start) slices.push_back({AttrKind::kOther, dfs::kInvalidNode, start, end});
    }

    Span task_span;
    task_span.kind = SpanKind::kTask;
    task_span.name = "exec.task.run";
    task_span.process = ts.process;
    task_span.task = ts.task;
    task_span.node = node;
    task_span.start_ticks = start;
    task_span.end_ticks = end;
    task_span.breakdown = std::move(slices);
    const std::uint32_t task_id = log.add(std::move(task_span));

    for (std::uint32_t rec_idx : reads) {
      const sim::ReadRecord& rec = records[rec_idx];
      Span read;
      read.parent = task_id;
      read.kind = SpanKind::kRead;
      read.name = "exec.read.serve";
      read.process = rec.process;
      read.task = rec.task;
      read.node = rec.reader_node;
      read.server = rec.serving_node;
      read.chunk = rec.chunk;
      read.bytes = rec.bytes;
      const sim::ReadBreakdown& rb = exec.read_breakdowns[rec_idx];
      read.start_ticks = rb.issue_ticks;
      read.end_ticks = rb.end_ticks;
      read.breakdown = read_slices(rb, cluster, rec.serving_node);
      log.add(std::move(read));
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
    queue.name = "svc.job.queue";
    queue.process = static_cast<std::uint32_t>(s.tenant);
    queue.task = static_cast<std::uint32_t>(s.id);
    queue.start_ticks = arrival;
    queue.end_ticks = planned;
    if (planned > arrival)
      queue.breakdown.push_back({AttrKind::kQueueWait, dfs::kInvalidNode, arrival, planned});
    log.add(std::move(queue));

    Span plan;
    plan.kind = SpanKind::kPlan;
    plan.name = "svc.job.plan";
    plan.process = static_cast<std::uint32_t>(s.tenant);
    plan.task = static_cast<std::uint32_t>(s.id);
    plan.start_ticks = planned;
    plan.end_ticks = planned;
    log.add(std::move(plan));
  }
}

}  // namespace opass::obs
