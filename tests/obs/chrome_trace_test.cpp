#include "obs/chrome_trace.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/experiment.hpp"

namespace opass::obs {
namespace {

runtime::ExecutionResult recorded_run(std::uint64_t seed = 42) {
  exp::ExperimentConfig cfg;
  cfg.nodes = 16;
  cfg.seed = seed;
  runtime::ExecutionResult raw;
  cfg.raw = &raw;
  exp::run_single_data(cfg, /*chunk_count=*/64, exp::Method::kOpass);
  return raw;
}

std::size_t count_occurrences(const std::string& haystack, const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size()))
    ++count;
  return count;
}

TEST(ChromeTrace, EmptyBuilderRendersValidSkeleton) {
  ChromeTraceBuilder builder;
  const std::string json = builder.json();
  EXPECT_EQ(json.find("\"ph\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
}

TEST(ChromeTrace, RoundTripsARecordedExecutorRun) {
  const runtime::ExecutionResult raw = recorded_run();
  ASSERT_FALSE(raw.trace.records().empty());
  ASSERT_FALSE(raw.task_spans.empty());

  ChromeTraceBuilder builder;
  builder.set_process_name(0, "opass");
  builder.add_execution(raw, /*pid=*/0);

  // One duration event per read record plus one per task span.
  const std::string json = builder.json();
  EXPECT_EQ(count_occurrences(json, "\"ph\": \"X\""),
            raw.trace.records().size() + raw.task_spans.size());
  EXPECT_EQ(count_occurrences(json, "\"process_name\""), 1u);
  EXPECT_EQ(count_occurrences(json, "\"process_sort_index\""), 1u);
  // One thread_sort_index metadata event per (pid, tid) track.
  EXPECT_EQ(count_occurrences(json, "\"thread_sort_index\""),
            raw.process_finish_time.size());
  EXPECT_NE(json.find("\"cat\": \"read\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"task\""), std::string::npos);
  // Negative numbers may only appear inside args (never in ts/dur).
  EXPECT_EQ(json.find("\"ts\": -"), std::string::npos);
  EXPECT_EQ(json.find("\"dur\": -"), std::string::npos);
}

TEST(ChromeTrace, ExportIsByteDeterministic) {
  ChromeTraceBuilder a;
  ChromeTraceBuilder b;
  a.set_process_name(0, "opass");
  b.set_process_name(0, "opass");
  a.add_execution(recorded_run(), 0);
  b.add_execution(recorded_run(), 0);
  EXPECT_EQ(a.json(), b.json());
}

TEST(ChromeTrace, DistinctPidsKeepMethodsSeparate) {
  ChromeTraceBuilder builder;
  builder.set_process_name(0, "baseline");
  builder.set_process_name(1, "opass");
  builder.add_execution(recorded_run(1), 0);
  builder.add_execution(recorded_run(2), 1);
  const std::string json = builder.json();
  EXPECT_NE(json.find("\"pid\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"pid\": 1"), std::string::npos);
  EXPECT_EQ(count_occurrences(json, "\"process_name\""), 2u);
}

TEST(ChromeTrace, RepeatedProcessNamesDeduplicate) {
  ChromeTraceBuilder builder;
  builder.set_process_name(0, "first");
  builder.set_process_name(0, "second");
  builder.set_process_name(0, "final");
  const std::string json = builder.json();
  EXPECT_EQ(count_occurrences(json, "\"process_name\""), 1u);
  EXPECT_EQ(json.find("first"), std::string::npos);
  EXPECT_NE(json.find("final"), std::string::npos);
}

TEST(ChromeTrace, MetadataEmitsSortedByPid) {
  ChromeTraceBuilder builder;
  builder.set_process_name(7, "late");
  builder.set_process_name(2, "early");
  const std::string json = builder.json();
  const std::size_t early = json.find("\"pid\": 2");
  const std::size_t late = json.find("\"pid\": 7");
  ASSERT_NE(early, std::string::npos);
  ASSERT_NE(late, std::string::npos);
  EXPECT_LT(early, late);
  EXPECT_EQ(count_occurrences(json, "\"process_sort_index\""), 2u);
}

TEST(ChromeTrace, CounterEventsRenderWithoutDurations) {
  ChromeTraceBuilder builder;
  builder.add_counter(0, "timeline.cluster.inflight", 0.0, 3);
  builder.add_counter(0, "timeline.cluster.inflight", 500000.0, 1.5);
  const std::string json = builder.json();
  EXPECT_EQ(count_occurrences(json, "\"ph\": \"C\""), 2u);
  EXPECT_EQ(json.find("\"dur\""), std::string::npos);
  EXPECT_NE(json.find("\"args\": {\"value\": 1.5}"), std::string::npos);
  EXPECT_THROW(builder.add_counter(0, "timeline.cluster.inflight", -1.0, 0),
               std::invalid_argument);
}

TEST(ChromeTrace, TiesOnTimeAndTrackSortByRenderedName) {
  // Events at one (ts, pid, tid) order by their rendered names compared as
  // strings, so "read chunk 10" precedes "read chunk 9"; equal names keep
  // their add order.
  runtime::ExecutionResult raw;
  raw.task_spans.push_back({/*process=*/0, /*task=*/3, /*start=*/1.0, /*end=*/2.0});
  sim::ReadRecord r;
  r.issue_time = 1.0;
  r.end_time = 1.5;
  r.chunk = 9;
  r.bytes = 64;
  r.serving_node = 5;
  raw.trace.add(r);
  r.chunk = 10;
  r.local = true;
  raw.trace.add(r);
  ChromeTraceBuilder builder;
  builder.add_execution(raw, /*pid=*/0);
  builder.add_counter(0, "b", 1e6, 2);
  builder.add_counter(0, "a", 1e6, 1);
  builder.add_counter(0, "b", 1e6, 3);
  const std::string json = builder.json();

  const std::vector<std::string> order = {
      "\"name\": \"a\"", "\"args\": {\"value\": 2}", "\"args\": {\"value\": 3}",
      "\"name\": \"read chunk 10\"", "\"name\": \"read chunk 9\"", "\"name\": \"task 3\""};
  std::size_t at = 0;
  for (const std::string& needle : order) {
    const std::size_t found = json.find(needle, at);
    ASSERT_NE(found, std::string::npos) << needle << " out of order in\n" << json;
    at = found;
  }
  EXPECT_NE(json.find("\"name\": \"read chunk 9\", \"cat\": \"read\", \"ph\": \"X\", "
                      "\"ts\": 1000000, \"dur\": 500000, \"pid\": 0, \"tid\": 0, \"args\": "
                      "{\"chunk\": 9, \"bytes\": 64, \"server\": 5, \"local\": false}}"),
            std::string::npos);
  EXPECT_NE(json.find("{\"chunk\": 10, \"bytes\": 64, \"server\": 5, \"local\": true}"),
            std::string::npos);
}

}  // namespace
}  // namespace opass::obs
