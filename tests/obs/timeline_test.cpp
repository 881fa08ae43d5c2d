#include "obs/timeline.hpp"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/experiment.hpp"
#include "runtime/executor.hpp"
#include "runtime/static_partitioner.hpp"
#include "runtime/task_source.hpp"
#include "workload/dataset.hpp"

namespace opass::obs {
namespace {

TEST(TimelineName, EnforcesTheTaxonomy) {
  EXPECT_TRUE(valid_timeline_series_name("timeline.cluster.inflight"));
  EXPECT_TRUE(valid_timeline_series_name("timeline.cluster.node.3.serve_bytes_per_s"));
  EXPECT_FALSE(valid_timeline_series_name("timeline.cluster"));       // two segments
  EXPECT_FALSE(valid_timeline_series_name("metrics.cluster.x"));      // wrong root
  EXPECT_FALSE(valid_timeline_series_name("timeline.Cluster.x"));     // uppercase
  EXPECT_FALSE(valid_timeline_series_name("timeline..x"));            // empty segment
  EXPECT_FALSE(valid_timeline_series_name("timeline.cluster.x."));    // trailing dot
  EXPECT_FALSE(valid_timeline_series_name("timeline.clu ster.x"));    // space
}

TEST(TimelineRecorder, RejectsBadNamesAndDuplicates) {
  TimelineRecorder t(1.0);
  EXPECT_THROW(t.add_level_series("queue_depth"), std::invalid_argument);
  EXPECT_THROW(t.add_rate_series("timeline.serve"), std::invalid_argument);
  t.add_level_series("timeline.test.depth");
  EXPECT_THROW(t.add_level_series("timeline.test.depth"), std::invalid_argument);
}

TEST(TimelineRecorder, LevelsRepeatAcrossEmptyIntervals) {
  TimelineRecorder t(1.0);
  const auto id = t.add_level_series("timeline.test.depth", /*initial=*/2);
  t.record_level(id, 2.5, 7);
  t.finish(5.0);
  // Boundaries 0,1,2 sample the initial value (the t=2.5 event lands after
  // boundary 2); boundaries 3,4,5 see the new level.
  EXPECT_EQ(t.series_values(id), (std::vector<double>{2, 2, 2, 7, 7, 7}));
  EXPECT_EQ(t.partial_duration(), 0.0);
}

TEST(TimelineRecorder, EventExactlyOnABoundaryChargesTheNextInterval) {
  TimelineRecorder t(1.0);
  const auto level = t.add_level_series("timeline.test.depth");
  const auto rate = t.add_rate_series("timeline.test.bytes_per_s");
  t.record_level(level, 2.0, 5);  // exactly on boundary 2
  t.record_rate(rate, 2.0, 10);
  t.finish(3.5);
  // Boundary 2 is emitted with the pre-event state; the event shows at 3.
  EXPECT_EQ(t.series_values(level), (std::vector<double>{0, 0, 0, 5, 5}));
  EXPECT_EQ(t.series_values(rate), (std::vector<double>{0, 0, 0, 10, 0}));
}

TEST(TimelineRecorder, RatesConvertToPerSecond) {
  TimelineRecorder t(0.5);
  const auto id = t.add_rate_series("timeline.test.bytes_per_s");
  t.record_rate(id, 0.1, 30);
  t.record_rate(id, 0.4, 20);
  t.record_rate(id, 0.7, 5);
  t.finish(1.0);
  // Interval (0, 0.5] carries 50 units -> 100/s at boundary 1; (0.5, 1.0]
  // carries 5 -> 10/s folded into the final boundary (end lands on it).
  EXPECT_EQ(t.series_values(id), (std::vector<double>{0, 100, 10}));
}

TEST(TimelineRecorder, FinishInsideAnIntervalEmitsAScaledPartialSample) {
  TimelineRecorder t(1.0);
  const auto rate = t.add_rate_series("timeline.test.bytes_per_s");
  const auto level = t.add_level_series("timeline.test.depth");
  t.record_rate(rate, 2.25, 10);
  t.record_level(level, 2.25, 4);
  t.finish(2.5);
  // The open remainder (2, 2.5] is half an interval: 10 units over 0.5 s.
  EXPECT_DOUBLE_EQ(t.partial_duration(), 0.5);
  EXPECT_EQ(t.series_values(rate), (std::vector<double>{0, 0, 0, 20}));
  EXPECT_EQ(t.series_values(level), (std::vector<double>{0, 0, 0, 4}));
  EXPECT_DOUBLE_EQ(t.end_time(), 2.5);
}

TEST(TimelineRecorder, SamplesExactlyOnTheEndTime) {
  // End exactly on a boundary: no partial sample, and events stamped at the
  // end restamp the final boundary instead of vanishing into a never-emitted
  // next interval.
  TimelineRecorder t(1.0);
  const auto rate = t.add_rate_series("timeline.test.bytes_per_s");
  const auto level = t.add_level_series("timeline.test.depth", /*initial=*/1);
  t.record_rate(rate, 3.0, 6);   // the run's final completions
  t.record_level(level, 3.0, 0);
  t.finish(3.0);
  EXPECT_EQ(t.partial_duration(), 0.0);
  EXPECT_EQ(t.tick_count(), 4u);  // boundaries 0..3
  EXPECT_EQ(t.series_values(rate), (std::vector<double>{0, 0, 0, 6}));
  EXPECT_EQ(t.series_values(level), (std::vector<double>{1, 1, 1, 0}));
}

TEST(TimelineRecorder, FinishIsFinal) {
  TimelineRecorder t(1.0);
  const auto id = t.add_level_series("timeline.test.depth");
  t.finish(1.0);
  EXPECT_TRUE(t.finished());
  EXPECT_THROW(t.record_level(id, 2.0, 1), std::invalid_argument);
  EXPECT_THROW(t.finish(2.0), std::invalid_argument);
  EXPECT_THROW(t.add_level_series("timeline.test.late"), std::invalid_argument);
}

TEST(TimelineRecorder, RingWrapKeepsTheNewestTicks) {
  constexpr std::size_t kCap = TimelineRecorder::kRingCapacity;
  TimelineRecorder t(1.0);
  const auto id = t.add_level_series("timeline.test.depth");
  const int last = static_cast<int>(kCap) + 6;
  for (int k = 1; k <= last; ++k)
    t.record_level(id, static_cast<double>(k), k);  // boundary k samples k-1
  t.finish(static_cast<double>(last));
  EXPECT_EQ(t.tick_count(), kCap + 7);
  EXPECT_EQ(t.dropped_ticks(), 7u);
  EXPECT_EQ(t.first_retained_tick(), 7u);
  // Ticks 7..last survive (tick k holds k - 1); the end-on-boundary restamp
  // lifts the last tick to the final level.
  const auto values = t.series_values(id);
  ASSERT_EQ(values.size(), kCap);
  EXPECT_EQ(values.front(), 6);
  EXPECT_EQ(values[1], 7);
  EXPECT_EQ(values[kCap - 2], last - 2);
  EXPECT_EQ(values.back(), last);
}

TEST(TimelineRecorder, ZeroLengthRunRestampsTickZero) {
  // A run that starts and ends at t = 0: the lone boundary is restamped with
  // the end state instead of the never-emitted "next interval" swallowing it.
  TimelineRecorder t(1.0);
  const auto level = t.add_level_series("timeline.test.depth", /*initial=*/1);
  const auto rate = t.add_rate_series("timeline.test.bytes_per_s");
  t.record_level(level, 0.0, 5);
  t.record_rate(rate, 0.0, 4);
  t.finish(0.0);
  EXPECT_EQ(t.tick_count(), 1u);
  EXPECT_EQ(t.partial_duration(), 0.0);
  EXPECT_EQ(t.series_values(level), (std::vector<double>{5}));
  EXPECT_EQ(t.series_values(rate), (std::vector<double>{4}));
}

TEST(TimelineRecorder, RestampFoldsInIntervalAndOnBoundaryMassTogether) {
  // Rate mass lands both strictly inside the final interval (2.4) and
  // exactly on the end boundary (3.0); the restamp must fold both into the
  // final sample — neither may leak into a phantom interval 4.
  TimelineRecorder t(1.0);
  const auto id = t.add_rate_series("timeline.test.bytes_per_s");
  t.record_rate(id, 2.4, 7);
  t.record_rate(id, 3.0, 3);
  t.finish(3.0);
  EXPECT_EQ(t.partial_duration(), 0.0);
  EXPECT_EQ(t.series_values(id), (std::vector<double>{0, 0, 0, 10}));
}

TEST(TimelineRecorder, PartialWindowCarriesOnEndEvents) {
  // Events stamped exactly at a mid-interval end belong to the partial
  // window, scaled by its true duration (0.25 s here -> 5 / 0.25 = 20/s).
  TimelineRecorder t(1.0);
  const auto rate = t.add_rate_series("timeline.test.bytes_per_s");
  const auto level = t.add_level_series("timeline.test.depth");
  t.record_rate(rate, 1.25, 5);
  t.record_level(level, 1.25, 9);
  t.finish(1.25);
  EXPECT_DOUBLE_EQ(t.partial_duration(), 0.25);
  EXPECT_EQ(t.series_values(rate), (std::vector<double>{0, 0, 20}));
  EXPECT_EQ(t.series_values(level), (std::vector<double>{0, 0, 9}));
}

sim::FaultEvent crash_at(Seconds at, dfs::NodeId node) {
  sim::FaultEvent ev;
  ev.at = at;
  ev.kind = sim::FaultKind::kCrash;
  ev.node = node;
  return ev;
}

TEST(TimelineFaults, CrashRunFinishesWithAConsistentWindowShape) {
  // A mid-run crash + recovery must still leave the recorder in a coherent
  // end state: flushed at the makespan, with every series carrying exactly
  // tick_count retained boundaries plus at most one partial sample.
  TimelineRecorder recorder(0.5);
  exp::ExperimentConfig cfg;
  cfg.nodes = 16;
  cfg.seed = 42;
  cfg.timeline = &recorder;
  sim::FaultPlan plan;
  plan.events.push_back(crash_at(2.0, 5));
  sim::FaultStats stats;
  cfg.faults = &plan;
  cfg.fault_stats = &stats;
  const auto out = exp::run_single_data(cfg, /*chunk_count=*/80, exp::Method::kOpass);

  ASSERT_EQ(stats.crashes, 1u);
  ASSERT_TRUE(recorder.finished());
  // Recovery traffic (the victim's re-replication copies) keeps the cluster
  // clock running past the job's makespan; the recorder is flushed at the
  // cluster end, so the crash's background tail is part of the window.
  EXPECT_GE(recorder.end_time(), out.makespan);
  EXPECT_GE(recorder.partial_duration(), 0.0);
  EXPECT_LT(recorder.partial_duration(), recorder.interval());
  const std::size_t expected =
      static_cast<std::size_t>(recorder.tick_count() - recorder.first_retained_tick()) +
      (recorder.partial_duration() > 0 ? 1 : 0);
  for (TimelineRecorder::SeriesId s = 0; s < recorder.series_count(); ++s)
    EXPECT_EQ(recorder.series_values(s).size(), expected) << recorder.series_name(s);

  const auto find = [&](const char* name) {
    TimelineRecorder::SeriesId id = UINT32_MAX;
    for (TimelineRecorder::SeriesId s = 0; s < recorder.series_count(); ++s)
      if (recorder.series_name(s) == name) id = s;
    EXPECT_NE(id, UINT32_MAX) << name;
    return id;
  };
  // The reassigned work still drains: no reads stay in flight at the end.
  EXPECT_EQ(recorder.series_values(find("timeline.cluster.inflight")).back(), 0.0);
  // Re-replication reads were never announced via add_expected_bytes, so the
  // bytes_remaining level ends exactly `rereplicated_bytes` below zero — the
  // recovery traffic is visible, byte for byte, in the timeline.
  EXPECT_EQ(recorder.series_values(find("timeline.cluster.bytes_remaining")).back(),
            -static_cast<double>(stats.rereplicated_bytes));
}

TEST(TimelineFaults, CrashReplaysRecordByteIdenticalSeries) {
  const auto run = [] {
    TimelineRecorder recorder(0.5);
    exp::ExperimentConfig cfg;
    cfg.nodes = 16;
    cfg.seed = 42;
    cfg.timeline = &recorder;
    sim::FaultPlan plan;
    plan.events.push_back(crash_at(2.0, 5));
    cfg.faults = &plan;
    exp::run_single_data(cfg, /*chunk_count=*/80, exp::Method::kOpass);
    std::vector<std::vector<double>> all;
    for (TimelineRecorder::SeriesId s = 0; s < recorder.series_count(); ++s)
      all.push_back(recorder.series_values(s));
    return all;
  };
  EXPECT_EQ(run(), run());
}

// A node that joins mid-run serves reads once the rebalance moves chunks
// onto it, but the recorder cannot register its series after the first
// sample: its reads count in the cluster-wide series only.
TEST(TimelineFaults, JoinedNodeCountsInTheClusterSeriesOnly) {
  TimelineRecorder recorder(0.5);
  exp::ExperimentConfig cfg;
  cfg.nodes = 8;
  cfg.seed = 42;
  cfg.timeline = &recorder;
  runtime::ExecutionResult raw;
  cfg.raw = &raw;
  sim::FaultPlan plan;
  sim::FaultEvent join;
  join.at = 0.5;
  join.kind = sim::FaultKind::kJoin;
  sim::FaultEvent rebalance;
  rebalance.at = 1.0;
  rebalance.kind = sim::FaultKind::kRebalance;
  plan.events = {join, rebalance};
  cfg.faults = &plan;
  exp::run_single_data(cfg, /*chunk_count=*/400, exp::Method::kBaseline);

  const std::vector<Bytes> served = raw.trace.bytes_served_per_node(cfg.nodes + 1);
  ASSERT_GT(served[cfg.nodes], 0u);  // the joined node served job reads
  ASSERT_TRUE(recorder.finished());
  double served_total = 0;
  for (Bytes b : served) served_total += static_cast<double>(b);
  for (TimelineRecorder::SeriesId s = 0; s < recorder.series_count(); ++s) {
    const std::string& name = recorder.series_name(s);
    EXPECT_EQ(name.rfind("timeline.cluster.node.8.", 0), std::string::npos) << name;
    if (name == "timeline.cluster.inflight") {
      EXPECT_EQ(recorder.series_values(s).back(), 0.0);
    }
    if (name == "timeline.cluster.serve_bytes_per_s") {
      // Job reads and rebalance copies both count, the joined node's too.
      const std::vector<double> values = recorder.series_values(s);
      double integral = 0;
      for (std::size_t i = 0; i < values.size(); ++i)
        integral += values[i] * (recorder.partial_duration() > 0 && i + 1 == values.size()
                                     ? recorder.partial_duration()
                                     : recorder.interval());
      EXPECT_GE(integral, served_total - 1.0);
    }
  }
}

TEST(TimelineProbes, RecordAFullRunEndToEnd) {
  TimelineRecorder recorder(0.5);
  exp::ExperimentConfig cfg;
  cfg.nodes = 8;
  cfg.seed = 42;
  cfg.timeline = &recorder;
  runtime::ExecutionResult raw;
  cfg.raw = &raw;
  const auto out = exp::run_single_data(cfg, /*chunk_count=*/40, exp::Method::kOpass);

  ASSERT_TRUE(recorder.finished());
  EXPECT_DOUBLE_EQ(recorder.end_time(), out.makespan);

  // Per-node serve-rate integral over the samples reproduces the trace's
  // total served bytes (rates are bytes/s, boundary samples span interval
  // seconds, the trailing sample its partial duration).
  const std::vector<Bytes> served = raw.trace.bytes_served_per_node(cfg.nodes);
  for (std::uint32_t n = 0; n < cfg.nodes; ++n) {
    TimelineRecorder::SeriesId id = UINT32_MAX;
    const std::string name =
        "timeline.cluster.node." + std::to_string(n) + ".serve_bytes_per_s";
    for (TimelineRecorder::SeriesId s = 0; s < recorder.series_count(); ++s)
      if (recorder.series_name(s) == name) id = s;
    ASSERT_NE(id, UINT32_MAX) << name;
    const std::vector<double> values = recorder.series_values(id);
    double integral = 0;
    for (std::size_t i = 0; i < values.size(); ++i) {
      const bool partial_tail =
          recorder.partial_duration() > 0 && i + 1 == values.size();
      integral += values[i] * (partial_tail ? recorder.partial_duration()
                                            : recorder.interval());
    }
    EXPECT_NEAR(integral, static_cast<double>(served[n]), 1.0) << name;
  }

  // In-flight reads and queue depth both drain to zero at the end.
  for (const char* name : {"timeline.cluster.inflight", "timeline.executor.queue_depth",
                           "timeline.cluster.bytes_remaining"}) {
    TimelineRecorder::SeriesId id = UINT32_MAX;
    for (TimelineRecorder::SeriesId s = 0; s < recorder.series_count(); ++s)
      if (recorder.series_name(s) == name) id = s;
    ASSERT_NE(id, UINT32_MAX) << name;
    EXPECT_EQ(recorder.series_values(id).back(), 0.0) << name;
  }
}

TEST(TimelineProbes, RecordedRunsAreDeterministic) {
  const auto run = [] {
    TimelineRecorder recorder(0.5);
    exp::ExperimentConfig cfg;
    cfg.nodes = 8;
    cfg.seed = 7;
    cfg.timeline = &recorder;
    exp::run_single_data(cfg, /*chunk_count=*/40, exp::Method::kBaseline);
    std::vector<std::vector<double>> all;
    for (TimelineRecorder::SeriesId s = 0; s < recorder.series_count(); ++s)
      all.push_back(recorder.series_values(s));
    return all;
  };
  EXPECT_EQ(run(), run());
}

/// FNV-1a (64-bit) over every series' name, kind and sample bits in
/// registration order, plus the window shape.
std::string digest_series(const TimelineRecorder& recorder) {
  std::uint64_t hash = 14695981039346656037ULL;
  const auto bytes = [&](const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash ^= p[i];
      hash *= 1099511628211ULL;
    }
  };
  const auto u64 = [&](std::uint64_t v) { bytes(&v, sizeof v); };
  const auto f64 = [&](double v) { bytes(&v, sizeof v); };
  u64(recorder.series_count());
  u64(recorder.tick_count());
  f64(recorder.partial_duration());
  f64(recorder.end_time());
  for (TimelineRecorder::SeriesId s = 0; s < recorder.series_count(); ++s) {
    const std::string& name = recorder.series_name(s);
    u64(name.size());
    bytes(name.data(), name.size());
    u64(static_cast<std::uint64_t>(recorder.series_kind(s)));
    const std::vector<double> values = recorder.series_values(s);
    u64(values.size());
    for (double v : values) f64(v);
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, hash);
  return buf;
}

// The executor's depth events also move in prefetch mode (compute overlaps
// the next task's reads). Pin every series of a RunTimeline attached to one
// prefetch run: the constant was recorded on an earlier commit, so a change
// that moves one depth stamp fails here even when it replays consistently.
TEST(TimelineProbes, PrefetchRunRecordsPinnedSeries) {
  constexpr std::uint32_t kNodes = 8;
  constexpr std::uint32_t kTasks = 48;
  dfs::NameNode nn(dfs::Topology::single_rack(kNodes), 3, kDefaultChunkSize);
  dfs::RandomPlacement policy;
  Rng rng(5);
  const auto tasks =
      workload::make_single_data_workload(nn, kTasks, policy, rng, /*compute_time=*/0.3);
  sim::Cluster cluster(kNodes);
  TimelineRecorder recorder(0.25);
  RunTimeline timeline(&recorder, cluster, kNodes);
  runtime::ExecutorConfig ec;
  ec.prefetch = true;
  ec.probe = timeline.executor_probe();
  timeline.add_expected_bytes(runtime::total_task_bytes(nn, tasks));
  runtime::StaticAssignmentSource source(runtime::rank_interval_assignment(kTasks, kNodes));
  const auto result = runtime::execute(cluster, nn, tasks, source, rng, ec);
  EXPECT_EQ(result.tasks_executed, kTasks);
  timeline.finish();
  EXPECT_EQ(digest_series(recorder), "feb98c20b048d718");
}

}  // namespace
}  // namespace opass::obs
