// Metric sinks: JSON and CSV serialization of a MetricsRegistry.
//
// Determinism contract: the default export includes only metrics tagged
// Determinism::kDeterministic, iterates in registration order, and formats
// every double with one fixed spec (SinkWriter below) — so a seeded run
// writes byte-identical files on every execution and on every machine (the
// property the `cli_metrics_deterministic` ctest entry asserts). Wall-clock
// metrics appear only when ExportOptions::include_wall_clock is set, and
// such files are explicitly not byte-stable.
#pragma once

#include <charconv>
#include <concepts>
#include <limits>
#include <string>
#include <string_view>

#include "obs/metrics.hpp"

namespace opass::obs {

/// The one number-and-string appender behind every deterministic sink (the
/// metrics, Chrome-trace, span, critical-path, timeline and HTML
/// renderers): each `<<` writes into a fixed local buffer with
/// std::to_chars, so no field builds a temporary string, and the buffer
/// moves to the caller's std::string in blocks of up to kBufferBytes. The
/// flush rule: the string holds everything written only after flush() (or
/// the writer's destruction), so every renderer flushes before it returns
/// its string. Integers render in decimal; doubles as "%.9g" would
/// (chars_format::general, precision 9), with "-0" normalized to "0".
/// tests/obs/metrics_test.cpp checks that format against snprintf, so a
/// standard library whose to_chars differs fails there instead of in a
/// golden digest.
class SinkWriter {
 public:
  static constexpr std::size_t kBufferBytes = 4096;

  explicit SinkWriter(std::string& out) : out_(out) {}
  /// Flushes what is still buffered, so no byte is lost; renderers flush()
  /// first, because a string returned by value may be moved out before the
  /// writer is destroyed.
  ~SinkWriter() { flush(); }
  SinkWriter(const SinkWriter&) = delete;
  SinkWriter& operator=(const SinkWriter&) = delete;

  SinkWriter& operator<<(std::string_view s) {
    if (s.size() > kBufferBytes - len_) {
      flush();
      if (s.size() > kBufferBytes) {
        out_.append(s);
        return *this;
      }
    }
    s.copy(buf_ + len_, s.size());
    len_ += s.size();
    return *this;
  }
  SinkWriter& operator<<(char c) {
    if (len_ == kBufferBytes) flush();
    buf_[len_++] = c;
    return *this;
  }
  SinkWriter& operator<<(double v);
  /// Any integer but char and bool (a bool must be spelled out).
  template <std::integral T>
    requires(!std::same_as<T, char> && !std::same_as<T, bool>)
  SinkWriter& operator<<(T v) {
    // digits, sign, and one spare
    if (kBufferBytes - len_ < std::size_t{std::numeric_limits<T>::digits10 + 3}) flush();
    len_ = static_cast<std::size_t>(std::to_chars(buf_ + len_, buf_ + kBufferBytes, v).ptr -
                                    buf_);
    return *this;
  }

  /// Append `s` with JSON string escaping (no surrounding quotes).
  SinkWriter& escaped(std::string_view s);

  /// Move the buffered bytes to the string.
  void flush() {
    out_.append(buf_, len_);
    len_ = 0;
  }

 private:
  std::string& out_;
  std::size_t len_ = 0;  ///< bytes buffered in buf_
  char buf_[kBufferBytes];
};

/// Outcome of a file write. Returned (not thrown) because a missing
/// directory or full disk on `--metrics-out` is an operator error, not a
/// programming error; callers must look at it, hence [[nodiscard]].
struct [[nodiscard]] IoStatus {
  bool ok = true;
  std::string message;  ///< empty on success, reason otherwise

  explicit operator bool() const { return ok; }
};

/// Serialization knobs (options-last on every entry point).
struct ExportOptions {
  /// Also emit Determinism::kWallClock metrics. Off by default so the
  /// output is byte-identical across runs of the same seed.
  bool include_wall_clock = false;
};

/// Serialize as a JSON document:
///   {"schema": 1, "metrics": [{"name": ..., "kind": ..., ...}, ...]}
/// Counters carry an integer "value", gauges a double "value", histograms
/// "count"/"sum"/"min"/"max" plus a "buckets" array of {"le", "count"} pairs
/// and an "overflow" count. Ends with a trailing newline.
std::string to_json(const MetricsRegistry& registry, ExportOptions options = {});

/// Serialize as CSV with header `name,kind,value`. Histograms flatten into
/// one row per component: `<name>.count`, `<name>.sum`, `<name>.min`,
/// `<name>.max`, `<name>.le_<bound>` per bucket and `<name>.overflow`.
/// Names containing commas, quotes or newlines are quoted per RFC 4180.
std::string to_csv(const MetricsRegistry& registry, ExportOptions options = {});

/// Write `content` to `path`, overwriting. Fails (with a message naming the
/// path) instead of aborting when the path is not writable.
IoStatus write_file(const std::string& path, const std::string& content);

/// SinkWriter's double format as a string, for exporters that build text
/// another way (the service-trace rendering).
std::string format_double(double value);

}  // namespace opass::obs
