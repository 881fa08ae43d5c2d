#include "obs/attribution.hpp"

#include <algorithm>
#include <tuple>

#include "common/require.hpp"
#include "obs/metrics_io.hpp"
#include "opass/process_index.hpp"

namespace opass::obs {

namespace {

/// Sentinel-aware id: UINT32_MAX fields render as -1.
std::int64_t signed_id(std::uint32_t v) {
  return v == UINT32_MAX ? std::int64_t{-1} : std::int64_t{v};
}

bool valid_method_name(const std::string& name) {
  if (name.empty()) return false;
  for (char c : name)
    if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_')) return false;
  return true;
}

void write_attribution(SinkWriter& w, const AttributionTotals& totals) {
  w << "{\"total_ticks\": " << totals.total_ticks << ", \"kinds\": {";
  for (std::size_t k = 0; k < kAttrKindCount; ++k) {
    if (k) w << ", ";
    w << '"' << attr_kind_name(static_cast<AttrKind>(k)) << "\": " << totals.kind_ticks[k];
  }
  w << "}, \"nodes\": {";
  bool first = true;
  for (std::size_t n = 0; n < totals.node_ticks.size(); ++n) {
    if (totals.node_ticks[n] == 0) continue;
    if (!first) w << ", ";
    first = false;
    w << '"' << n << "\": " << totals.node_ticks[n];
  }
  w << "}}";
}

}  // namespace

void AttributionTotals::add_slice(const AttrSlice& slice) {
  kind_ticks[static_cast<std::size_t>(slice.kind)] += slice.duration_ticks();
  if (slice.node != dfs::kInvalidNode && slice.node < node_ticks.size())
    node_ticks[slice.node] += slice.duration_ticks();
}

void AttributionTotals::add_span(const Span& span, std::span<const AttrSlice> slices) {
  total_ticks += span.duration_ticks();
  if (slices.empty()) {
    kind_ticks[static_cast<std::size_t>(AttrKind::kOther)] += span.duration_ticks();
    return;
  }
  for (const AttrSlice& s : slices) add_slice(s);
}

AttributionTotals attribute_spans(const SpanLog& log, std::uint32_t node_count) {
  AttributionTotals totals;
  totals.node_ticks.assign(node_count, 0);
  // Top-level spans only: a read span's slices already appear inside its
  // parent task's tiling, so counting children would double-charge.
  for (const Span& s : log.spans())
    if (s.parent == kNoSpan) totals.add_span(s, log.breakdown(s));
  return totals;
}

CriticalPath critical_path(const SpanLog& log, std::uint32_t node_count) {
  CriticalPath cp;
  cp.blame.node_ticks.assign(node_count, 0);
  const std::vector<Span>& spans = log.spans();

  // Per-process task-span chains in time order, in one CSR table, plus each
  // task span's position in its chain.
  std::uint32_t max_process = 0;
  bool any = false;
  for (const Span& s : spans)
    if (s.kind == SpanKind::kTask) {
      max_process = std::max(max_process, s.process);
      any = true;
    }
  if (!any) return cp;
  core::Adjacency chains = core::group_by_column(max_process + 1, [&](const auto& emit) {
    for (const Span& s : spans)
      if (s.kind == SpanKind::kTask) emit(s.id, s.process);
  });
  std::vector<std::uint32_t> pos(spans.size(), 0);
  for (std::uint32_t p = 0; p <= max_process; ++p) {
    const auto chain = std::span(chains.items).subspan(chains.offset[p], chains.row(p).size());
    std::sort(chain.begin(), chain.end(), [&](std::uint32_t a, std::uint32_t b) {
      return std::tie(spans[a].start_ticks, spans[a].end_ticks, a) <
             std::tie(spans[b].start_ticks, spans[b].end_ticks, b);
    });
    for (std::uint32_t i = 0; i < chain.size(); ++i) pos[chain[i]] = i;
  }

  // Task spans sorted by (end, process, id): the phase-boundary lookup — "who
  // finished exactly when this span started" — and its deterministic
  // tie-break fall out of one lower_bound.
  struct ByEnd {
    std::int64_t end;
    std::uint32_t process;
    std::uint32_t id;
  };
  std::vector<ByEnd> by_end;
  by_end.reserve(chains.items.size());
  for (std::uint32_t id : chains.items)
    by_end.push_back({spans[id].end_ticks, spans[id].process, id});
  std::sort(by_end.begin(), by_end.end(), [](const ByEnd& a, const ByEnd& b) {
    return std::tie(a.end, a.process, a.id) < std::tie(b.end, b.process, b.id);
  });

  // Start at the last-finishing task span (ties: lowest process, lowest id).
  std::uint32_t cur = kNoSpan;
  for (const ByEnd& e : by_end)
    if (cur == kNoSpan || e.end > spans[cur].end_ticks) cur = e.id;
  for (const ByEnd& e : by_end)
    if (e.end == spans[cur].end_ticks) {
      cur = e.id;  // sorted ascending, so the first hit is the tie-winner
      break;
    }

  // Backward walk. `visited` guards against cycles through zero-duration
  // spans (end == start == another zero span's boundary).
  std::vector<char> visited(spans.size(), 0);
  std::vector<CriticalPath::Step> rev;
  while (true) {
    visited[cur] = 1;
    rev.push_back({cur, spans[cur].start_ticks, spans[cur].end_ticks});
    const Span& c = spans[cur];
    const std::int64_t start = c.start_ticks;
    const std::span<const std::uint32_t> chain = chains.row(c.process);
    const std::uint32_t prev =
        pos[cur] > 0 ? chain[pos[cur] - 1] : kNoSpan;
    // 1. Same process, chained exactly: the previous task released this one.
    if (prev != kNoSpan && !visited[prev] && spans[prev].end_ticks == start) {
      cur = prev;
      continue;
    }
    // 2. A task on any process finished exactly at our start: the last task
    // of the previous phase, which launched this one.
    auto it = std::lower_bound(
        by_end.begin(), by_end.end(), start,
        [](const ByEnd& e, std::int64_t t) { return e.end < t; });
    std::uint32_t blocker = kNoSpan;
    for (; it != by_end.end() && it->end == start; ++it)
      if (!visited[it->id]) {
        blocker = it->id;
        break;
      }
    if (blocker != kNoSpan) {
      cur = blocker;
      continue;
    }
    // 3. Same process with a gap: cover it with a synthetic idle step so the
    // path stays gap-free (the gap is real wait — retry windows, admission).
    if (prev != kNoSpan && !visited[prev] && spans[prev].end_ticks < start) {
      rev.push_back({kNoSpan, spans[prev].end_ticks, start});
      cur = prev;
      continue;
    }
    break;  // 4. Nothing precedes us: the path's origin.
  }
  std::reverse(rev.begin(), rev.end());
  cp.steps = std::move(rev);

  for (const CriticalPath::Step& step : cp.steps) {
    if (step.span != kNoSpan) {
      cp.blame.add_span(spans[step.span], log.breakdown(spans[step.span]));
    } else {
      cp.blame.total_ticks += step.end_ticks - step.start_ticks;
      cp.blame.kind_ticks[static_cast<std::size_t>(AttrKind::kOther)] +=
          step.end_ticks - step.start_ticks;
    }
  }
  // The chain invariant the whole analysis rests on: steps tile the path.
  for (std::size_t i = 1; i < cp.steps.size(); ++i)
    OPASS_CHECK(cp.steps[i].start_ticks == cp.steps[i - 1].end_ticks,
                "critical-path steps must chain exactly");
  return cp;
}

void SpanDocBuilder::add_method(const std::string& name, const SpanLog& log,
                                std::uint32_t node_count) {
  OPASS_REQUIRE(valid_method_name(name), "method name must be [a-z0-9_]+");
  Method m;
  m.name = name;
  m.log = &log;
  m.node_count = node_count;
  m.totals = attribute_spans(log, node_count);
  m.path = critical_path(log, node_count);
  methods_.push_back(std::move(m));
}

const CriticalPath& SpanDocBuilder::path(std::size_t index) const {
  OPASS_REQUIRE(index < methods_.size(), "method index out of range");
  return methods_[index].path;
}

std::string SpanDocBuilder::spans_json() const {
  std::size_t spans_total = 0;
  for (const Method& m : methods_) spans_total += m.log->size();
  std::string out;
  out.reserve(512 * spans_total + 1024);  // a rendered span is ~400-450 bytes
  SinkWriter w(out);
  w << "{\"schema\": 1, \"ticks_per_second\": 1000000000, \"methods\": [";
  for (std::size_t mi = 0; mi < methods_.size(); ++mi) {
    const Method& m = methods_[mi];
    w << (mi ? ",\n" : "\n") << "{\"name\": \"" << m.name
      << "\", \"makespan_ticks\": " << m.log->max_end_ticks()
      << ", \"span_count\": " << m.log->size() << ", \"attribution\": ";
    write_attribution(w, m.totals);
    w << ", \"spans\": [";
    const auto& spans = m.log->spans();
    for (std::size_t si = 0; si < spans.size(); ++si) {
      const Span& s = spans[si];
      w << (si ? ",\n  " : "\n  ") << "{\"id\": " << s.id
        << ", \"parent\": " << signed_id(s.parent) << ", \"kind\": \""
        << span_kind_name(s.kind) << "\", \"name\": \"" << span_name(s.kind)
        << "\", \"process\": " << s.process
        << ", \"task\": " << signed_id(s.task) << ", \"node\": " << signed_id(s.node)
        << ", \"server\": " << signed_id(s.server) << ", \"chunk\": " << signed_id(s.chunk)
        << ", \"bytes\": " << s.bytes << ", \"start_ticks\": " << s.start_ticks
        << ", \"end_ticks\": " << s.end_ticks << ", \"breakdown\": [";
      const std::span<const AttrSlice> breakdown = m.log->breakdown(s);
      for (std::size_t bi = 0; bi < breakdown.size(); ++bi) {
        const AttrSlice& b = breakdown[bi];
        if (bi) w << ", ";
        w << "{\"kind\": \"" << attr_kind_name(b.kind) << "\", \"node\": " << signed_id(b.node)
          << ", \"start_ticks\": " << b.start_ticks << ", \"end_ticks\": " << b.end_ticks
          << '}';
      }
      w << "]}";
    }
    w << "\n]}";
  }
  w << "\n]}\n";
  w.flush();
  return out;
}

std::string SpanDocBuilder::critical_path_json() const {
  std::string out;
  SinkWriter w(out);
  w << "{\"schema\": 1, \"ticks_per_second\": 1000000000, \"methods\": [";
  for (std::size_t mi = 0; mi < methods_.size(); ++mi) {
    const Method& m = methods_[mi];
    const auto& spans = m.log->spans();
    w << (mi ? ",\n" : "\n") << "{\"name\": \"" << m.name
      << "\", \"makespan_ticks\": " << m.log->max_end_ticks() << ", \"blame\": ";
    write_attribution(w, m.path.blame);
    w << ", \"steps\": [";
    for (std::size_t si = 0; si < m.path.steps.size(); ++si) {
      const CriticalPath::Step& step = m.path.steps[si];
      w << (si ? ",\n  " : "\n  ");
      if (step.span == kNoSpan) {
        w << "{\"span\": -1, \"name\": \"idle\", \"process\": -1, \"task\": -1";
      } else {
        const Span& s = spans[step.span];
        w << "{\"span\": " << step.span << ", \"name\": \"" << span_name(s.kind)
          << "\", \"process\": " << s.process << ", \"task\": " << signed_id(s.task);
      }
      w << ", \"start_ticks\": " << step.start_ticks << ", \"end_ticks\": " << step.end_ticks
        << '}';
    }
    w << "\n]}";
  }
  w << "\n]}\n";
  w.flush();
  return out;
}

std::string SpanDocBuilder::critical_path_text() const {
  std::string out;
  SinkWriter w(out);
  for (const Method& m : methods_) {
    const std::int64_t makespan = m.log->max_end_ticks();
    w << "== " << m.name << " ==\nmakespan: " << SpanLog::seconds(makespan) << " s ("
      << makespan << " ticks)\ncritical path: " << m.path.steps.size() << " steps covering "
      << SpanLog::seconds(m.path.blame.total_ticks) << " s\nblame:\n";
    // Buckets in descending tick order, ties by enum order; zeros omitted.
    std::vector<std::size_t> kinds;
    for (std::size_t k = 0; k < kAttrKindCount; ++k)
      if (m.path.blame.kind_ticks[k] > 0) kinds.push_back(k);
    std::stable_sort(kinds.begin(), kinds.end(), [&](std::size_t a, std::size_t b) {
      return m.path.blame.kind_ticks[a] > m.path.blame.kind_ticks[b];
    });
    for (std::size_t k : kinds) {
      const std::int64_t t = m.path.blame.kind_ticks[k];
      const double pct = m.path.blame.total_ticks > 0
                             ? 100.0 * static_cast<double>(t) /
                                   static_cast<double>(m.path.blame.total_ticks)
                             : 0.0;
      w << "  " << attr_kind_name(static_cast<AttrKind>(k)) << ' ' << SpanLog::seconds(t)
        << " s (" << pct << "%)\n";
    }
    std::vector<std::size_t> nodes;
    for (std::size_t n = 0; n < m.path.blame.node_ticks.size(); ++n)
      if (m.path.blame.node_ticks[n] > 0) nodes.push_back(n);
    std::stable_sort(nodes.begin(), nodes.end(), [&](std::size_t a, std::size_t b) {
      return m.path.blame.node_ticks[a] > m.path.blame.node_ticks[b];
    });
    if (nodes.size() > 8) nodes.resize(8);
    if (!nodes.empty()) {
      w << "blamed nodes:\n";
      for (std::size_t n : nodes)
        w << "  node " << n << ' ' << SpanLog::seconds(m.path.blame.node_ticks[n]) << " s\n";
    }
  }
  w.flush();
  return out;
}

void add_critical_path_flows(ChromeTraceBuilder& trace, const SpanLog& log,
                             const CriticalPath& cp, std::uint32_t pid) {
  const std::vector<Span>& spans = log.spans();
  std::uint64_t flow_id = 0;
  std::uint32_t prev = kNoSpan;
  for (const CriticalPath::Step& step : cp.steps) {
    if (step.span == kNoSpan) continue;  // idle gaps stay within one track
    const Span& s = spans[step.span];
    if (prev != kNoSpan && spans[prev].process != s.process) {
      ++flow_id;
      trace.add_flow_step(pid, spans[prev].process,
                          static_cast<double>(spans[prev].end_ticks) * 1e-3, 's',
                          flow_id);
      trace.add_flow_step(pid, s.process, static_cast<double>(s.start_ticks) * 1e-3,
                          'f', flow_id);
    }
    prev = step.span;
  }
}

}  // namespace opass::obs
