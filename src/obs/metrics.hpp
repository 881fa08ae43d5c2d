// Deterministic metrics registry: named counters, gauges and fixed-bucket
// histograms.
//
// The registry is the single collection point for everything the simulator,
// the executor and the planners measure. Two invariants make it useful for a
// reproduction repo:
//
//  * Deterministic export. Metrics are kept in registration order and
//    serialized (obs/metrics_io.hpp) with a fixed number format, so the same
//    seeded run produces byte-identical output every time. Registration
//    order is itself deterministic because all instrumented code paths are.
//  * Explicit wall-clock tagging. Host timings (planner milliseconds and the
//    like) are real observations but not replayable; they register as
//    Determinism::kWallClock and the exporters exclude them unless asked,
//    keeping the default sinks byte-stable.
//
// Collectors that reduce finished runs into a registry live in
// obs/collect.hpp; serialization in obs/metrics_io.hpp.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/names.hpp"

namespace opass::obs {

/// What a Metric holds.
enum class MetricKind {
  kCounter,    ///< monotonically increasing 64-bit count
  kGauge,      ///< last-written double (a level, a ratio, a duration)
  kHistogram,  ///< fixed-bucket sample distribution
};

/// Canonical lowercase name ("counter", "gauge", "histogram").
const char* metric_kind_name(MetricKind kind);

/// Whether a metric replays byte-identically under a fixed seed.
enum class Determinism {
  kDeterministic,  ///< derived from simulation state; replayable
  kWallClock,      ///< host timing; excluded from deterministic exports
};

/// Fixed-bucket histogram state. A sample `s` lands in the first bucket `i`
/// with `s <= upper_bounds[i]`; samples above the last bound land in the
/// final (overflow) bucket, so `buckets.size() == upper_bounds.size() + 1`
/// and no sample is ever dropped.
struct HistogramData {
  std::vector<double> upper_bounds;    ///< strictly ascending bucket edges
  std::vector<std::uint64_t> buckets;  ///< per-bucket counts; last = overflow
  std::uint64_t count = 0;             ///< total samples observed
  double sum = 0;                      ///< sum of all samples
  double min = 0;                      ///< smallest sample (0 when empty)
  double max = 0;                      ///< largest sample (0 when empty)

  /// Samples that exceeded every bound.
  std::uint64_t overflow() const { return buckets.empty() ? 0 : buckets.back(); }

  /// Mean of the observed samples; 0 when empty.
  double mean() const { return count ? sum / static_cast<double>(count) : 0.0; }

  /// Record one sample.
  void observe(double sample);
};

/// One named measurement. Exactly one of `counter` / `gauge` / `histogram`
/// is meaningful, selected by `kind`; the others stay zero-initialized.
struct Metric {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  Determinism determinism = Determinism::kDeterministic;
  std::uint64_t counter = 0;
  double gauge = 0;
  HistogramData histogram;
};

/// Collection point for counters, gauges and histograms. Metrics are created
/// on first touch and kept in registration order; re-touching a name with a
/// different kind is a programming error (OPASS_REQUIRE). Each name is
/// stored once, in its Metric; the lookup index holds only positions.
class MetricsRegistry {
 public:
  /// Add `delta` to a counter, creating it at zero on first touch.
  /// Counters are always deterministic — they count simulation events.
  void counter_add(const std::string& name, std::uint64_t delta = 1);

  /// Set a gauge to `value`, creating it on first touch. The determinism tag
  /// is fixed on creation; later writes must agree.
  void gauge_set(const std::string& name, double value,
                 Determinism determinism = Determinism::kDeterministic);

  /// Create a histogram with the given strictly ascending bucket bounds
  /// (plus the implicit overflow bucket). Re-defining an existing histogram
  /// with identical bounds is a no-op; with different bounds it is an error.
  /// Returns the histogram, which samples are recorded through (no lookup
  /// per sample); the reference holds until the next metric is created.
  HistogramData& define_histogram(const std::string& name, std::vector<double> upper_bounds);

  /// Make room for `count` more metrics, so a collector that is about to
  /// create them grows the table and its index once.
  void reserve(std::size_t count);

  /// True when a metric of any kind with this name exists.
  bool contains(const std::string& name) const;

  /// Look up a metric by name; it must exist.
  const Metric& at(const std::string& name) const;

  /// All metrics in registration order (the exporters' iteration order).
  const std::vector<Metric>& metrics() const { return metrics_; }

  std::size_t size() const { return metrics_.size(); }

 private:
  Metric& get_or_create(const std::string& name, MetricKind kind, Determinism determinism);
  /// The index's view of the names the metrics store.
  auto stored_name() const {
    return [this](std::uint32_t i) -> std::string_view { return metrics_[i].name; };
  }
  /// Position of metric `name` in metrics_, or NameIndex::kNone.
  std::uint32_t find(std::string_view name) const {
    return index_.find(name, stored_name());
  }

  std::vector<Metric> metrics_;
  NameIndex index_;  ///< over metrics_[i].name
};

}  // namespace opass::obs
