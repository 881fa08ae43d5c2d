#include "obs/metrics.hpp"

#include <algorithm>
#include <utility>

#include "common/require.hpp"
#include "common/reserve.hpp"

namespace opass::obs {

const char* metric_kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  OPASS_CHECK(false, "unhandled MetricKind");
}

void HistogramData::observe(double sample) {
  std::size_t bucket = upper_bounds.size();  // overflow unless a bound fits
  for (std::size_t i = 0; i < upper_bounds.size(); ++i) {
    if (sample <= upper_bounds[i]) {
      bucket = i;
      break;
    }
  }
  ++buckets[bucket];
  if (count == 0) {
    min = sample;
    max = sample;
  } else {
    min = std::min(min, sample);
    max = std::max(max, sample);
  }
  ++count;
  sum += sample;
}

Metric& MetricsRegistry::get_or_create(const std::string& name, MetricKind kind,
                                       Determinism determinism) {
  const std::uint32_t i = find(name);
  if (i != NameIndex::kNone) {
    Metric& m = metrics_[i];
    OPASS_REQUIRE(m.kind == kind, "metric re-touched with a different kind");
    OPASS_REQUIRE(m.determinism == determinism,
                  "metric re-touched with a different determinism tag");
    return m;
  }
  Metric& m = metrics_.emplace_back();
  m.name = name;
  m.kind = kind;
  m.determinism = determinism;
  index_.insert(static_cast<std::uint32_t>(metrics_.size() - 1), m.name, stored_name());
  return m;
}

void MetricsRegistry::reserve(std::size_t count) {
  reserve_total(metrics_, metrics_.size() + count);
  index_.reserve(metrics_.size() + count, stored_name());
}

void MetricsRegistry::counter_add(const std::string& name, std::uint64_t delta) {
  get_or_create(name, MetricKind::kCounter, Determinism::kDeterministic).counter += delta;
}

void MetricsRegistry::gauge_set(const std::string& name, double value,
                                Determinism determinism) {
  get_or_create(name, MetricKind::kGauge, determinism).gauge = value;
}

HistogramData& MetricsRegistry::define_histogram(const std::string& name,
                                                 std::vector<double> upper_bounds) {
  OPASS_REQUIRE(!upper_bounds.empty(), "histogram needs at least one bucket bound");
  for (std::size_t i = 1; i < upper_bounds.size(); ++i)
    OPASS_REQUIRE(upper_bounds[i - 1] < upper_bounds[i],
                  "histogram bounds must be strictly ascending");
  HistogramData& h =
      get_or_create(name, MetricKind::kHistogram, Determinism::kDeterministic).histogram;
  if (!h.buckets.empty()) {
    OPASS_REQUIRE(h.upper_bounds == upper_bounds, "histogram re-defined with different bounds");
    return h;
  }
  h.upper_bounds = std::move(upper_bounds);
  h.buckets.assign(h.upper_bounds.size() + 1, 0);
  return h;
}

bool MetricsRegistry::contains(const std::string& name) const {
  return find(name) != NameIndex::kNone;
}

const Metric& MetricsRegistry::at(const std::string& name) const {
  const std::uint32_t i = find(name);
  OPASS_REQUIRE(i != NameIndex::kNone, "unknown metric name");
  return metrics_[i];
}

}  // namespace opass::obs
