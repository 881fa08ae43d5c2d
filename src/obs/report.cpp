#include "obs/report.hpp"

#include <algorithm>

#include "common/require.hpp"
#include "obs/attribution.hpp"
#include "obs/metrics_io.hpp"

namespace opass::obs {

namespace {

constexpr double kMicrosPerSecond = 1e6;
constexpr int kChartWidth = 640;
constexpr int kChartHeight = 160;

bool safe_label(const std::string& name) {
  if (name.empty()) return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_';
    if (!ok) return false;
  }
  return true;
}

/// Sample times of a finished recorder: boundary ticks at k * interval for
/// every retained tick, plus the trailing partial sample at end_time.
std::vector<double> sample_times(const TimelineRecorder& t) {
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(t.tick_count() - t.first_retained_tick()) + 1);
  for (std::uint64_t k = t.first_retained_tick(); k < t.tick_count(); ++k)
    times.push_back(static_cast<double>(k) * t.interval());
  if (t.partial_duration() > 0) times.push_back(t.end_time());
  return times;
}

/// Find a series id by exact name; returns false when the recorder has none
/// (e.g. a run shape that never wired the executor probe).
bool find_series(const TimelineRecorder& t, std::string_view name,
                 TimelineRecorder::SeriesId& out) {
  for (TimelineRecorder::SeriesId id = 0; id < t.series_count(); ++id) {
    if (t.series_name(id) == name) {
      out = id;
      return true;
    }
  }
  return false;
}

/// One inline SVG step chart of a single series, with the element id
/// `chart-<method>-<chart>`.
void write_svg_chart(SinkWriter& w, const std::string& method, const char* chart,
                     const char* title, const TimelineRecorder& t, const char* series) {
  w << "<figure>\n<figcaption>" << title << "</figcaption>\n";
  TimelineRecorder::SeriesId id = 0;
  if (!find_series(t, series, id)) {
    w << "<p class=\"missing\" id=\"chart-" << method << '-' << chart
      << "\">series not recorded</p>\n</figure>\n";
    return;
  }
  const std::vector<double> values = t.series_values(id);
  const std::vector<double> times = sample_times(t);
  OPASS_CHECK(values.size() == times.size(), "sample/time count mismatch");

  double vmax = 0;
  for (double v : values) vmax = std::max(vmax, v);
  const double tmax = times.empty() ? 0 : std::max(times.back(), t.interval());

  w << "<svg id=\"chart-" << method << '-' << chart << "\" viewBox=\"0 0 " << kChartWidth
    << ' ' << kChartHeight << "\" preserveAspectRatio=\"none\">\n"
    << "<polyline fill=\"none\" stroke=\"currentColor\" stroke-width=\"1.5\" points=\"";
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double x = tmax > 0 ? times[i] / tmax * kChartWidth : 0;
    const double y = vmax > 0 ? kChartHeight - values[i] / vmax * kChartHeight
                              : kChartHeight;
    if (i > 0) w << ' ';
    w << x << ',' << y;
  }
  w << "\"/>\n</svg>\n<p class=\"axis\">0 &ndash; " << tmax << " s, peak " << vmax
    << "</p>\n</figure>\n";
}

void write_imbalance_json(SinkWriter& w, const ImbalanceStats& s) {
  w << "{\"count\": " << s.count << ", \"mean\": " << s.mean << ", \"max\": " << s.max
    << ", \"degree_of_imbalance\": " << s.degree_of_imbalance << ", \"cv\": " << s.cv
    << ", \"gini\": " << s.gini << ", \"peak_over_mean\": " << s.peak_over_mean << '}';
}

void write_stragglers_json(SinkWriter& w, const std::vector<Straggler>& list) {
  w << '[';
  for (std::size_t i = 0; i < list.size(); ++i) {
    const Straggler& s = list[i];
    if (i > 0) w << ", ";
    w << "{\"id\": " << s.id << ", \"finish\": " << s.finish
      << ", \"threshold\": " << s.threshold << ", \"chunks\": [";
    for (std::size_t c = 0; c < s.causal_chunks.size(); ++c) {
      if (c > 0) w << ", ";
      w << s.causal_chunks[c];
    }
    w << "]}";
  }
  w << ']';
}

void write_imbalance_rows(SinkWriter& w, const char* label, const ImbalanceStats& s) {
  w << "<tr><td>" << label << " degree of imbalance</td><td>" << s.degree_of_imbalance
    << "</td></tr>\n<tr><td>" << label << " CV</td><td>" << s.cv
    << "</td></tr>\n<tr><td>" << label << " Gini</td><td>" << s.gini
    << "</td></tr>\n<tr><td>" << label << " peak / mean</td><td>" << s.peak_over_mean
    << "</td></tr>\n";
}

void write_straggler_rows(SinkWriter& w, const char* label,
                          const std::vector<Straggler>& list) {
  w << "<tr><td>" << label << "</td><td>" << list.size();
  if (!list.empty()) {
    w << " (";
    for (std::size_t i = 0; i < list.size(); ++i) {
      if (i > 0) w << ", ";
      w << '#' << list[i].id;
    }
    w << ')';
  }
  w << "</td></tr>\n";
}

}  // namespace

void ReportBuilder::add_method(MethodReport method) {
  OPASS_REQUIRE(safe_label(method.name),
                "method name must be [a-z0-9_]+: " + method.name);
  OPASS_REQUIRE(method.timeline != nullptr, "method report without a timeline");
  OPASS_REQUIRE(method.timeline->finished(),
                "finish() the recorder before building reports");
  for (const MethodReport& m : methods_)
    OPASS_REQUIRE(m.name != method.name, "duplicate method report: " + method.name);
  methods_.push_back(std::move(method));
}

std::string ReportBuilder::html() const {
  std::string out;
  SinkWriter w(out);
  w << "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n"
       "<title>opass run report</title>\n<style>\n"
       "body { font-family: system-ui, sans-serif; margin: 2rem; color: #222; }\n"
       "section { margin-bottom: 2.5rem; }\n"
       "figure { margin: 1rem 0; }\n"
       "figcaption { font-weight: 600; margin-bottom: 0.25rem; }\n"
       "svg { width: 100%; max-width: 640px; height: 160px; display: block;\n"
       "      border: 1px solid #ccc; background: #fafafa; color: #0b62a4; }\n"
       ".axis, .missing { color: #666; font-size: 0.85rem; margin: 0.25rem 0; }\n"
       "table { border-collapse: collapse; }\n"
       "td { border: 1px solid #ccc; padding: 0.25rem 0.75rem; }\n"
       "</style>\n</head>\n<body>\n<h1>opass run report</h1>\n";
  for (const MethodReport& m : methods_) {
    const TimelineRecorder& t = *m.timeline;
    w << "<section id=\"method-" << m.name << "\">\n<h2>" << m.name << "</h2>\n"
      << "<table>\n<tr><td>makespan</td><td>" << m.makespan << " s</td></tr>\n"
      << "<tr><td>local read fraction</td><td>" << m.local_fraction << "</td></tr>\n";
    write_imbalance_rows(w, "serve bytes", m.analytics.serve_bytes);
    write_imbalance_rows(w, "process finish", m.analytics.process_finish);
    write_straggler_rows(w, "straggler nodes", m.analytics.straggler_nodes);
    write_straggler_rows(w, "straggler processes", m.analytics.straggler_processes);
    if (t.dropped_ticks() > 0)
      w << "<tr><td>dropped ticks (ring wrap)</td><td>" << t.dropped_ticks() << "</td></tr>\n";
    w << "</table>\n";
    if (m.spans != nullptr && !m.spans->empty()) {
      // Bottleneck attribution: where the (top-level) span time went, per
      // causal bucket and per blamed node — the DESIGN.md §13 breakdown.
      const AttributionTotals totals = attribute_spans(*m.spans, m.node_count);
      w << "<h3>bottleneck attribution</h3>\n<table>\n";
      for (std::size_t k = 0; k < kAttrKindCount; ++k) {
        if (totals.kind_ticks[k] == 0) continue;
        const double share = totals.total_ticks > 0
                                 ? static_cast<double>(totals.kind_ticks[k]) /
                                       static_cast<double>(totals.total_ticks)
                                 : 0.0;
        w << "<tr><td>" << attr_kind_name(static_cast<AttrKind>(k)) << "</td><td>"
          << SpanLog::seconds(totals.kind_ticks[k]) << " s</td><td>" << 100.0 * share
          << "%</td></tr>\n";
      }
      w << "</table>\n";
      std::vector<std::size_t> nodes;
      for (std::size_t n = 0; n < totals.node_ticks.size(); ++n)
        if (totals.node_ticks[n] > 0) nodes.push_back(n);
      std::stable_sort(nodes.begin(), nodes.end(), [&](std::size_t a, std::size_t b) {
        return totals.node_ticks[a] > totals.node_ticks[b];
      });
      if (nodes.size() > 8) nodes.resize(8);
      if (!nodes.empty()) {
        w << "<h3>top blamed nodes</h3>\n<table>\n";
        for (std::size_t n : nodes)
          w << "<tr><td>node " << n << "</td><td>" << SpanLog::seconds(totals.node_ticks[n])
            << " s</td></tr>\n";
        w << "</table>\n";
      }
    }
    write_svg_chart(w, m.name, "serve-bytes", "cluster serve rate (bytes/s)", t,
                    "timeline.cluster.serve_bytes_per_s");
    write_svg_chart(w, m.name, "queue-depth", "executor queue depth (in-flight ops)", t,
                    "timeline.executor.queue_depth");
    write_svg_chart(w, m.name, "bytes-remaining", "bytes remaining", t,
                    "timeline.cluster.bytes_remaining");
    w << "</section>\n";
  }
  w << "</body>\n</html>\n";
  w.flush();
  return out;
}

std::string ReportBuilder::timeline_json() const {
  std::string out;
  SinkWriter w(out);
  w << "{\"schema\": 1, \"methods\": [";
  for (std::size_t mi = 0; mi < methods_.size(); ++mi) {
    const MethodReport& m = methods_[mi];
    const TimelineRecorder& t = *m.timeline;
    w << (mi > 0 ? ",\n" : "\n") << " {\"name\": \"" << m.name
      << "\", \"interval\": " << t.interval() << ", \"end_time\": " << t.end_time()
      << ", \"partial_duration\": " << t.partial_duration()
      << ", \"tick_count\": " << t.tick_count() << ", \"dropped_ticks\": " << t.dropped_ticks()
      << ", \"makespan\": " << m.makespan << ", \"local_fraction\": " << m.local_fraction
      << ",\n  \"analytics\": {\"serve_bytes\": ";
    write_imbalance_json(w, m.analytics.serve_bytes);
    w << ", \"process_finish\": ";
    write_imbalance_json(w, m.analytics.process_finish);
    w << ", \"node_finish_p90\": " << m.analytics.node_finish_p90
      << ", \"process_finish_p90\": " << m.analytics.process_finish_p90
      << ", \"straggler_nodes\": ";
    write_stragglers_json(w, m.analytics.straggler_nodes);
    w << ", \"straggler_processes\": ";
    write_stragglers_json(w, m.analytics.straggler_processes);
    w << "},\n  \"series\": [";
    for (TimelineRecorder::SeriesId id = 0; id < t.series_count(); ++id) {
      w << (id > 0 ? ",\n   " : "\n   ") << "{\"name\": \"" << t.series_name(id)
        << "\", \"kind\": \"" << series_kind_name(t.series_kind(id)) << "\", \"values\": [";
      const std::vector<double> values = t.series_values(id);
      for (std::size_t i = 0; i < values.size(); ++i) {
        if (i > 0) w << ", ";
        w << values[i];
      }
      w << "]}";
    }
    w << "]}";
  }
  w << "\n]}\n";
  w.flush();
  return out;
}

void add_timeline_counters(ChromeTraceBuilder& trace, const TimelineRecorder& timeline,
                           std::uint32_t pid) {
  OPASS_REQUIRE(timeline.finished(), "finish() the recorder before exporting counters");
  for (TimelineRecorder::SeriesId id = 0; id < timeline.series_count(); ++id) {
    const std::string& name = timeline.series_name(id);
    // Cluster-wide series only: exactly three segments. Per-node/per-process
    // series have four and would swamp the viewer with counter tracks.
    if (std::count(name.begin(), name.end(), '.') != 2) continue;
    const std::vector<double> values = timeline.series_values(id);
    const std::vector<double> times = sample_times(timeline);
    for (std::size_t i = 0; i < values.size(); ++i)
      trace.add_counter(pid, name, times[i] * kMicrosPerSecond, values[i]);
  }
}

}  // namespace opass::obs
