#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "obs/metrics_io.hpp"

namespace opass::obs {
namespace {

TEST(MetricsRegistry, CounterAccumulatesAndDefaultsToOne) {
  MetricsRegistry reg;
  reg.counter_add("reads");
  reg.counter_add("reads", 4);
  EXPECT_EQ(reg.at("reads").kind, MetricKind::kCounter);
  EXPECT_EQ(reg.at("reads").counter, 5u);
  EXPECT_TRUE(reg.contains("reads"));
  EXPECT_FALSE(reg.contains("writes"));
}

TEST(MetricsRegistry, LookupsSurviveIndexGrowth) {
  // Names registered one at a time, with no reserve: the index rehashes
  // several times and every name still resolves to its own metric.
  MetricsRegistry reg;
  for (std::uint64_t i = 0; i < 1000; ++i) reg.counter_add("node." + std::to_string(i), i);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    reg.counter_add("node." + std::to_string(i));  // re-touch, no new metric
    EXPECT_EQ(reg.at("node." + std::to_string(i)).counter, i + 1);
  }
  EXPECT_EQ(reg.size(), 1000u);
  EXPECT_FALSE(reg.contains("node.1000"));
}

TEST(MetricsRegistry, GaugeKeepsLastValue) {
  MetricsRegistry reg;
  reg.gauge_set("makespan_s", 1.5);
  reg.gauge_set("makespan_s", 2.5);
  EXPECT_DOUBLE_EQ(reg.at("makespan_s").gauge, 2.5);
}

TEST(MetricsRegistry, RegistrationOrderIsPreserved) {
  MetricsRegistry reg;
  reg.counter_add("b");
  reg.gauge_set("a", 1.0);
  reg.counter_add("c");
  ASSERT_EQ(reg.size(), 3u);
  EXPECT_EQ(reg.metrics()[0].name, "b");
  EXPECT_EQ(reg.metrics()[1].name, "a");
  EXPECT_EQ(reg.metrics()[2].name, "c");
}

TEST(MetricsRegistry, KindMismatchThrows) {
  MetricsRegistry reg;
  reg.counter_add("x");
  EXPECT_THROW(reg.gauge_set("x", 1.0), std::invalid_argument);
}

// --- histogram edge cases ---------------------------------------------------

TEST(Histogram, EmptyHistogramIsAllZero) {
  MetricsRegistry reg;
  reg.define_histogram("h", {1.0, 2.0});
  const HistogramData& h = reg.at("h").histogram;
  EXPECT_EQ(h.count, 0u);
  EXPECT_DOUBLE_EQ(h.sum, 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.overflow(), 0u);
  ASSERT_EQ(h.buckets.size(), 3u);  // two bounds + overflow
  EXPECT_EQ(h.buckets[0] + h.buckets[1] + h.buckets[2], 0u);
}

TEST(Histogram, SingleSampleLandsInFirstMatchingBucket) {
  MetricsRegistry reg;
  // The first bucket with 1.5 <= bound is "le 2.0".
  reg.define_histogram("h", {1.0, 2.0, 4.0}).observe(1.5);
  const HistogramData& h = reg.at("h").histogram;
  EXPECT_EQ(h.count, 1u);
  EXPECT_DOUBLE_EQ(h.sum, 1.5);
  EXPECT_DOUBLE_EQ(h.min, 1.5);
  EXPECT_DOUBLE_EQ(h.max, 1.5);
  EXPECT_DOUBLE_EQ(h.mean(), 1.5);
  EXPECT_EQ(h.buckets[0], 0u);
  EXPECT_EQ(h.buckets[1], 1u);
  EXPECT_EQ(h.buckets[2], 0u);
  EXPECT_EQ(h.overflow(), 0u);
}

TEST(Histogram, BoundaryValueIsInclusive) {
  MetricsRegistry reg;
  reg.define_histogram("h", {1.0, 2.0}).observe(1.0);  // s <= upper_bounds[0]
  EXPECT_EQ(reg.at("h").histogram.buckets[0], 1u);
}

TEST(Histogram, SamplesAboveEveryBoundOverflow) {
  MetricsRegistry reg;
  HistogramData& hist = reg.define_histogram("h", {1.0, 2.0});
  hist.observe(100.0);
  hist.observe(3.0);
  const HistogramData& h = reg.at("h").histogram;
  EXPECT_EQ(h.count, 2u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_DOUBLE_EQ(h.min, 3.0);
  EXPECT_DOUBLE_EQ(h.max, 100.0);
}

TEST(Histogram, RedefineWithIdenticalBoundsIsIdempotent) {
  MetricsRegistry reg;
  reg.define_histogram("h", {1.0, 2.0}).observe(0.5);
  reg.define_histogram("h", {1.0, 2.0});  // no-op, samples survive
  EXPECT_EQ(reg.at("h").histogram.count, 1u);
  EXPECT_THROW(reg.define_histogram("h", {3.0}), std::invalid_argument);
}

TEST(Histogram, NonAscendingBoundsRejected) {
  MetricsRegistry reg;
  EXPECT_THROW(reg.define_histogram("h", {2.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(reg.define_histogram("g", {1.0, 1.0}), std::invalid_argument);
}

// --- exporters --------------------------------------------------------------

void populate(MetricsRegistry& reg) {
  reg.counter_add("reads", 7);
  reg.gauge_set("makespan_s", 12.25);
  HistogramData& io = reg.define_histogram("io_s", {0.5, 1.0});
  io.observe(0.25);
  io.observe(2.0);
  reg.gauge_set("plan_wall_ms", 3.14, Determinism::kWallClock);
}

TEST(MetricsIo, JsonIsByteIdenticalAcrossIdenticalRegistries) {
  MetricsRegistry a;
  MetricsRegistry b;
  populate(a);
  populate(b);
  EXPECT_EQ(to_json(a), to_json(b));
  EXPECT_EQ(to_csv(a), to_csv(b));
}

TEST(MetricsIo, WallClockMetricsExcludedByDefault) {
  MetricsRegistry reg;
  populate(reg);
  const std::string json = to_json(reg);
  EXPECT_EQ(json.find("plan_wall_ms"), std::string::npos);
  EXPECT_NE(json.find("makespan_s"), std::string::npos);

  ExportOptions opts;
  opts.include_wall_clock = true;
  EXPECT_NE(to_json(reg, opts).find("plan_wall_ms"), std::string::npos);
}

TEST(MetricsIo, CsvFlattensHistograms) {
  MetricsRegistry reg;
  populate(reg);
  const std::string csv = to_csv(reg);
  EXPECT_NE(csv.find("io_s.count,"), std::string::npos);
  EXPECT_NE(csv.find("io_s.overflow,"), std::string::npos);
  EXPECT_NE(csv.find("io_s.le_0.5,"), std::string::npos);
}

TEST(MetricsIo, FormatDoubleNormalizesNegativeZero) {
  EXPECT_EQ(format_double(-0.0), "0");
  EXPECT_EQ(format_double(0.25), "0.25");
}

// --- SinkWriter parity ----------------------------------------------------

/// The format every deterministic sink has always used, kept here as the
/// oracle for SinkWriter's std::to_chars path: "%.9g" with "-0" shown as "0".
std::string printf_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  const std::string s = buf;
  return s == "-0" ? "0" : s;
}

// Each helper flushes its writer before it reads the string (the flush
// rule every renderer follows).
std::string written(double v) {
  std::string s;
  SinkWriter w(s);
  w << v;
  w.flush();
  return s;
}

template <typename T>
std::string written_int(T v) {
  std::string s;
  SinkWriter w(s);
  w << v;
  w.flush();
  return s;
}

TEST(SinkWriter, DoublesMatchPrintfOnEdgeValues) {
  using limits = std::numeric_limits<double>;
  const std::vector<double> edges = {
      0.0, -0.0, 1.0, -1.0, 0.5, 0.1, 1.0 / 3.0, 2.0 / 3.0,
      limits::infinity(), -limits::infinity(), limits::quiet_NaN(),
      limits::max(), -limits::max(), limits::min(), -limits::min(),
      limits::denorm_min(), -limits::denorm_min(), limits::epsilon(),
      // Where %g switches between fixed and exponent notation.
      1e-5, 9.99999999e-5, 1e-4, 0.000123456789, 123456789.0, 999999999.0,
      999999999.5, 1e9, 1234567890.0, 9.9999999949, 9.9999999951,
      // Rounding at the ninth significant digit.
      0.1234567895, 1.0000000005, 2.5e-7, 4096.0 / 3.0, 1e15, 1e21, 1e-300,
      // Typical sink values: tick-derived seconds, trace microseconds,
      // percentages and rates.
      16908400000 * 1e-9, 2180333333 * 1e-9, 4797259259 * 1e-3, 0.25 * 1e6,
      100.0 * 5333487622 / 16908400000, 67108864.0 / 2.180333333};
  for (const double v : edges) {
    EXPECT_EQ(written(v), printf_double(v)) << "bits " << std::bit_cast<std::uint64_t>(v);
    EXPECT_EQ(format_double(v), printf_double(v));
  }
}

TEST(SinkWriter, DoublesMatchPrintfOnRandomBitsAndScaledValues) {
  Rng rng(2024);
  std::size_t mismatches = 0;
  std::string first_mismatch;
  const auto check = [&](double v) {
    const std::string got = written(v);
    const std::string want = printf_double(v);
    if (got != want && mismatches++ == 0) first_mismatch = got + " vs " + want;
  };
  for (int i = 0; i < 1'000'000; ++i) {
    // Any bit pattern: every exponent, subnormals, infinities and NaNs.
    check(std::bit_cast<double>(rng()));
  }
  for (int i = 0; i < 200'000; ++i) {
    // Integer ticks shown as seconds, and seconds shown as trace
    // microseconds, over the range a run produces.
    check(static_cast<double>(rng.uniform(std::uint64_t{1} << 50)) * 1e-9);
    check(rng.uniform01() * 1e4 * 1e6);
    check(-rng.uniform01() * std::pow(10.0, static_cast<double>(rng.uniform(40)) - 20));
  }
  EXPECT_EQ(mismatches, 0u) << "first: " << first_mismatch;
}

TEST(SinkWriter, IntegersMatchToString) {
  using u64 = std::numeric_limits<std::uint64_t>;
  using i64 = std::numeric_limits<std::int64_t>;
  for (const std::uint64_t v : {u64::min(), std::uint64_t{1}, std::uint64_t{9},
                                std::uint64_t{10}, std::uint64_t{UINT32_MAX},
                                std::uint64_t{10'000'000'000'000'000'000u}, u64::max() - 1,
                                u64::max()})
    EXPECT_EQ(written_int(v), std::to_string(v));
  for (const std::int64_t v : {i64::min(), i64::min() + 1, std::int64_t{-1}, std::int64_t{0},
                               std::int64_t{1}, i64::max() - 1, i64::max()})
    EXPECT_EQ(written_int(v), std::to_string(v));
  EXPECT_EQ(written_int(std::uint32_t{UINT32_MAX}), "4294967295");
  EXPECT_EQ(written_int(-7), "-7");
  Rng rng(7);
  for (int i = 0; i < 100'000; ++i) {
    const std::uint64_t bits = rng();
    EXPECT_EQ(written_int(bits), std::to_string(bits));
    EXPECT_EQ(written_int(static_cast<std::int64_t>(bits)),
              std::to_string(static_cast<std::int64_t>(bits)));
  }
}

TEST(SinkWriter, EscapesJsonStrings) {
  std::string s;
  SinkWriter w(s);
  w.escaped("a\"b\\c\nd\te\x01\x1f");
  EXPECT_TRUE(s.empty());  // still buffered
  w.flush();
  EXPECT_EQ(s, "a\\\"b\\\\c\\nd\\te\\u0001\\u001f");
}

TEST(SinkWriter, CrossesItsBufferByteExactly) {
  // A document several buffers long: integers, doubles, an escaped string
  // longer than the buffer (so it straddles a flush) and an unescaped run
  // longer than the buffer. The writer's bytes equal the same text built
  // with plain std::string appends.
  std::string piece_raw;
  std::string piece_escaped;
  for (int i = 0; i < 500; ++i) {
    piece_raw += "ab\"c\\d\n\te\x01";
    piece_escaped += "ab\\\"c\\\\d\\n\\te\\u0001";
  }
  ASSERT_GT(piece_raw.size(), SinkWriter::kBufferBytes);
  const std::string long_run(SinkWriter::kBufferBytes + 100, 'x');

  std::string got;
  std::string want;
  SinkWriter w(got);
  for (std::uint64_t i = 0; want.size() < 4 * SinkWriter::kBufferBytes; ++i) {
    const auto k = -static_cast<std::int64_t>(i * 1'000'003);
    const double d = static_cast<double>(i) / 7.0;
    w << "{\"i\": " << i << ", \"k\": " << k << ", \"d\": " << d << '}';
    want += "{\"i\": " + std::to_string(i) + ", \"k\": " + std::to_string(k) +
            ", \"d\": " + printf_double(d) + '}';
    if (i == 40) {
      w << " \"";
      w.escaped(piece_raw) << "\" " << long_run;
      want += " \"" + piece_escaped + "\" " + long_run;
    }
  }
  w.flush();
  EXPECT_GT(want.size(), 4 * SinkWriter::kBufferBytes);
  EXPECT_EQ(got, want);
}

TEST(MetricsIo, CsvQuotesAdversarialLabels) {
  // RFC 4180: a name with commas, quotes or newlines must not shift columns
  // or break row framing when the CSV is read back.
  MetricsRegistry reg;
  reg.counter_add("plain.name", 1);
  reg.counter_add("comma,in,name", 2);
  reg.counter_add("say \"hi\"", 3);
  reg.counter_add("line\nbreak", 4);
  const std::string csv = to_csv(reg);
  EXPECT_NE(csv.find("plain.name,counter,1\n"), std::string::npos);
  EXPECT_NE(csv.find("\"comma,in,name\",counter,2\n"), std::string::npos);
  EXPECT_NE(csv.find("\"say \"\"hi\"\"\",counter,3\n"), std::string::npos);
  EXPECT_NE(csv.find("\"line\nbreak\",counter,4\n"), std::string::npos);
  // Unquoted adversarial forms must not appear.
  EXPECT_EQ(csv.find("\ncomma,in,name,"), std::string::npos);
  EXPECT_EQ(csv.find("\nsay \"hi\","), std::string::npos);
}

}  // namespace
}  // namespace opass::obs
