#include "obs/metrics_io.hpp"

#include <fstream>

#include "common/require.hpp"

namespace opass::obs {

namespace {

bool included(const Metric& m, const ExportOptions& options) {
  return options.include_wall_clock || m.determinism == Determinism::kDeterministic;
}

}  // namespace

SinkWriter& SinkWriter::operator<<(double v) {
  constexpr std::size_t kMaxChars = 32;  // "%.9g" needs at most 16
  if (v == 0) v = 0;  // "-0" renders as "0"
  if (kBufferBytes - len_ < kMaxChars) flush();
  len_ = static_cast<std::size_t>(
      std::to_chars(buf_ + len_, buf_ + kBufferBytes, v, std::chars_format::general, 9).ptr -
      buf_);
  return *this;
}

/// Minimal JSON string escaping; metric names are ASCII identifiers, but the
/// writer must not silently corrupt output if one ever is not. Each run of
/// characters that needs no escaping is appended at once.
SinkWriter& SinkWriter::escaped(std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::size_t run = 0;  // start of the pending unescaped run
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20) continue;
    *this << s.substr(run, i - run);
    run = i + 1;
    switch (c) {
      case '"': *this << "\\\""; break;
      case '\\': *this << "\\\\"; break;
      case '\n': *this << "\\n"; break;
      case '\t': *this << "\\t"; break;
      default: *this << "\\u00" << kHex[c >> 4] << kHex[c & 0xf];
    }
  }
  return *this << s.substr(run);
}

std::string format_double(double value) {
  std::string s;
  SinkWriter w(s);
  w << value;
  w.flush();
  return s;
}

std::string to_json(const MetricsRegistry& registry, ExportOptions options) {
  std::string out;
  SinkWriter w(out);
  w << "{\n  \"schema\": 1,\n  \"metrics\": [";
  bool first = true;
  for (const Metric& m : registry.metrics()) {
    if (!included(m, options)) continue;
    w << (first ? "\n" : ",\n");
    first = false;
    w << "    {\"name\": \"";
    w.escaped(m.name) << "\", \"kind\": \"" << metric_kind_name(m.kind) << '"';
    if (m.determinism == Determinism::kWallClock) w << ", \"wall_clock\": true";
    switch (m.kind) {
      case MetricKind::kCounter:
        w << ", \"value\": " << m.counter;
        break;
      case MetricKind::kGauge:
        w << ", \"value\": " << m.gauge;
        break;
      case MetricKind::kHistogram: {
        const HistogramData& h = m.histogram;
        w << ", \"count\": " << h.count << ", \"sum\": " << h.sum << ", \"min\": " << h.min
          << ", \"max\": " << h.max << ", \"buckets\": [";
        for (std::size_t i = 0; i < h.upper_bounds.size(); ++i) {
          if (i) w << ", ";
          w << "{\"le\": " << h.upper_bounds[i] << ", \"count\": " << h.buckets[i] << '}';
        }
        w << "], \"overflow\": " << h.overflow();
        break;
      }
    }
    w << '}';
  }
  w << (first ? "]\n}\n" : "\n  ]\n}\n");
  w.flush();
  return out;
}

std::string to_csv(const MetricsRegistry& registry, ExportOptions options) {
  std::string out;
  SinkWriter w(out);
  w << "name,kind,value\n";
  for (const Metric& m : registry.metrics()) {
    if (!included(m, options)) continue;
    // RFC 4180 field quoting: a name containing a comma, quote, CR or LF is
    // wrapped in double quotes with embedded quotes doubled. Metric names
    // are normally bare identifiers, but an adversarial label must not shift
    // every column after it (tests/obs/metrics_test.cpp pins this).
    const bool quote = m.name.find_first_of(",\"\r\n") != std::string::npos;
    // Starts a row: the name with `suffix` appended (never in need of
    // quoting) as one field, then the kind; the caller writes the value.
    const auto row = [&](const char* kind, const auto&... suffix) -> SinkWriter& {
      if (!quote) {
        w << m.name;
      } else {
        w << '"';
        for (const char c : m.name) {
          if (c == '"') w << '"';
          w << c;
        }
      }
      return (w << ... << suffix) << (quote ? "\"," : ",") << kind << ',';
    };
    switch (m.kind) {
      case MetricKind::kCounter:
        row("counter") << m.counter << '\n';
        break;
      case MetricKind::kGauge:
        row("gauge") << m.gauge << '\n';
        break;
      case MetricKind::kHistogram: {
        const HistogramData& h = m.histogram;
        row("histogram", ".count") << h.count << '\n';
        row("histogram", ".sum") << h.sum << '\n';
        row("histogram", ".min") << h.min << '\n';
        row("histogram", ".max") << h.max << '\n';
        for (std::size_t i = 0; i < h.upper_bounds.size(); ++i)
          row("histogram", ".le_", h.upper_bounds[i]) << h.buckets[i] << '\n';
        row("histogram", ".overflow") << h.overflow() << '\n';
        break;
      }
    }
  }
  w.flush();
  return out;
}

IoStatus write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return {false, "cannot open '" + path + "' for writing"};
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
  out.flush();
  if (!out) return {false, "short write to '" + path + "'"};
  return {};
}

}  // namespace opass::obs
