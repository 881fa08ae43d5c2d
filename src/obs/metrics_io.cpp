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
  if (v == 0) v = 0;  // "-0" renders as "0"
  char buf[32];
  out_.append(buf,
              std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 9).ptr);
  return *this;
}

/// Minimal JSON string escaping; metric names are ASCII identifiers, but the
/// writer must not silently corrupt output if one ever is not.
SinkWriter& SinkWriter::escaped(std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (const char c : s) {
    switch (c) {
      case '"': out_ += "\\\""; break;
      case '\\': out_ += "\\\\"; break;
      case '\n': out_ += "\\n"; break;
      case '\t': out_ += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out_ += "\\u00";
          out_ += kHex[c >> 4];
          out_ += kHex[c & 0xf];
        } else {
          out_ += c;
        }
    }
  }
  return *this;
}

std::string format_double(double value) {
  std::string s;
  SinkWriter(s) << value;
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
