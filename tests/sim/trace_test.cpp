#include "sim/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"

namespace opass::sim {
namespace {

ReadRecord rec(std::uint32_t proc, dfs::NodeId server, Bytes bytes, Seconds issue,
               Seconds end, bool local) {
  ReadRecord r;
  r.process = proc;
  r.reader_node = proc;
  r.serving_node = server;
  r.bytes = bytes;
  r.issue_time = issue;
  r.end_time = end;
  r.local = local;
  return r;
}

TEST(TraceRecorder, IoTimeIsEndMinusIssue) {
  EXPECT_DOUBLE_EQ(rec(0, 0, 10, 1.0, 3.5, true).io_time(), 2.5);
}

TEST(TraceRecorder, IoTimesOrderedByCompletion) {
  TraceRecorder t;
  t.add(rec(0, 0, 10, 0.0, 5.0, true));   // completes last
  t.add(rec(1, 1, 10, 0.0, 2.0, true));   // completes first
  t.add(rec(2, 2, 10, 1.0, 4.0, true));
  EXPECT_EQ(t.io_times(), (std::vector<double>{2.0, 3.0, 5.0}));
}

TEST(TraceRecorder, IoTimesByIssueOrder) {
  TraceRecorder t;
  t.add(rec(0, 0, 10, 2.0, 5.0, true));
  t.add(rec(1, 1, 10, 0.0, 2.0, true));
  EXPECT_EQ(t.io_times_by_issue(), (std::vector<double>{2.0, 3.0}));
}

/// io_times() (by end time) or io_times_by_issue() as a stable sort of the
/// records computes them.
std::vector<double> stable_order(const TraceRecorder& t, bool by_issue) {
  std::vector<ReadRecord> sorted = t.records();
  std::stable_sort(sorted.begin(), sorted.end(), [&](const ReadRecord& a, const ReadRecord& b) {
    return by_issue ? a.issue_time < b.issue_time : a.end_time < b.end_time;
  });
  std::vector<double> out;
  for (const auto& r : sorted) out.push_back(r.io_time());
  return out;
}

TEST(TraceRecorder, IoTimeOrdersMatchStableSorts) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    // Every record's I/O time is distinct, so any reordering shows. Tied end
    // times in half the trials, tied issue times in the other half.
    const bool tie_ends = trial % 2 == 0;
    std::vector<ReadRecord> records;
    for (std::uint32_t i = 0; i < 200; ++i) {
      const double io = 1.0 + i * 1e-3;
      const double tied = static_cast<double>(rng.uniform(10));
      records.push_back(tie_ends ? rec(i, 0, 1, 10.0 + tied - io, 10.0 + tied, false)
                                 : rec(i, 0, 1, tied, tied + io, false));
    }
    // Completion order, as the executor appends, in the even trials; out of
    // order in the odd ones.
    if (trial % 4 < 2) {
      std::stable_sort(records.begin(), records.end(),
                       [](const ReadRecord& a, const ReadRecord& b) {
                         return a.end_time < b.end_time;
                       });
    }
    TraceRecorder t;
    for (const auto& r : records) t.add(r);
    EXPECT_EQ(t.io_times(), stable_order(t, false)) << "trial " << trial;
    EXPECT_EQ(t.io_times_by_issue(), stable_order(t, true)) << "trial " << trial;
  }
}

TEST(TraceRecorder, BytesServedPerNode) {
  TraceRecorder t;
  t.add(rec(0, 1, 100, 0, 1, false));
  t.add(rec(1, 1, 50, 0, 1, false));
  t.add(rec(2, 0, 25, 0, 1, true));
  const auto served = t.bytes_served_per_node(3);
  EXPECT_EQ(served, (std::vector<Bytes>{25, 150, 0}));
}

TEST(TraceRecorder, OpsServedPerNode) {
  TraceRecorder t;
  t.add(rec(0, 1, 100, 0, 1, false));
  t.add(rec(1, 1, 50, 0, 1, false));
  const auto ops = t.ops_served_per_node(2);
  EXPECT_EQ(ops, (std::vector<std::uint32_t>{0, 2}));
}

TEST(TraceRecorder, ServedPerNodeRejectsOutOfRange) {
  TraceRecorder t;
  t.add(rec(0, 5, 100, 0, 1, false));
  EXPECT_THROW(t.bytes_served_per_node(3), std::invalid_argument);
}

TEST(TraceRecorder, LocalFraction) {
  TraceRecorder t;
  EXPECT_DOUBLE_EQ(t.local_fraction(), 0.0);
  t.add(rec(0, 0, 1, 0, 1, true));
  t.add(rec(0, 1, 1, 0, 1, false));
  t.add(rec(0, 0, 1, 0, 1, true));
  t.add(rec(0, 2, 1, 0, 1, false));
  EXPECT_DOUBLE_EQ(t.local_fraction(), 0.5);
}

TEST(TraceRecorder, Makespan) {
  TraceRecorder t;
  EXPECT_DOUBLE_EQ(t.makespan(), 0.0);
  t.add(rec(0, 0, 1, 0, 4.5, true));
  t.add(rec(0, 0, 1, 0, 2.0, true));
  EXPECT_DOUBLE_EQ(t.makespan(), 4.5);
}

TEST(TraceRecorder, ClearEmpties) {
  TraceRecorder t;
  t.add(rec(0, 0, 1, 0, 1, true));
  t.clear();
  EXPECT_EQ(t.size(), 0u);
}

}  // namespace
}  // namespace opass::sim
