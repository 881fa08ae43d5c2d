#include "opass/plan_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "opass/planner.hpp"
#include "workload/dataset.hpp"

namespace opass::core {
namespace {

TEST(PlanIo, RoundTripsSimpleAssignment) {
  const runtime::Assignment a{{0, 2}, {1, 3}, {}};
  const std::string text = serialize_assignment(a, 4);
  EXPECT_EQ(parse_assignment(text), a);
}

TEST(PlanIo, RoundTripsRealPlan) {
  dfs::NameNode nn(dfs::Topology::single_rack(8), 3, kDefaultChunkSize);
  dfs::RandomPlacement policy;
  Rng rng(3);
  const auto tasks = workload::make_single_data_workload(nn, 40, policy, rng);
  const auto placement = one_process_per_node(nn);
  const auto result = plan({&nn, &tasks, &placement, &rng});
  const std::string text = serialize_assignment(result.assignment, 40);
  EXPECT_EQ(parse_assignment(text), result.assignment);
}

TEST(PlanIo, HeaderContainsCounts) {
  const std::string text = serialize_assignment({{0}, {1}}, 2);
  EXPECT_NE(text.find("opass-plan v1\n"), std::string::npos);
  EXPECT_NE(text.find("processes 2\n"), std::string::npos);
  EXPECT_NE(text.find("tasks 2\n"), std::string::npos);
}

TEST(PlanIo, SerializeRejectsNonPartition) {
  EXPECT_THROW(serialize_assignment({{0, 0}}, 1), std::invalid_argument);   // dup
  EXPECT_THROW(serialize_assignment({{0}}, 2), std::invalid_argument);     // missing
  EXPECT_THROW(serialize_assignment({{5}}, 2), std::invalid_argument);     // range
}

TEST(PlanIo, ParseRejectsMalformedInputs) {
  EXPECT_THROW(parse_assignment(""), std::invalid_argument);
  EXPECT_THROW(parse_assignment("opass-plan v2\nprocesses 1\ntasks 0\np 0 :\n"),
               std::invalid_argument);  // bad version
  EXPECT_THROW(parse_assignment("opass-plan v1\nprocesses 0\ntasks 0\n"),
               std::invalid_argument);  // zero processes
  EXPECT_THROW(parse_assignment("opass-plan v1\nprocesses 1\ntasks 1\n"),
               std::invalid_argument);  // truncated
  EXPECT_THROW(parse_assignment("opass-plan v1\nprocesses 1\ntasks 1\np 0 : 0 junk\n"),
               std::invalid_argument);  // trailing garbage
  EXPECT_THROW(parse_assignment("opass-plan v1\nprocesses 1\ntasks 1\np 0 : 5\n"),
               std::invalid_argument);  // out of range
  EXPECT_THROW(parse_assignment("opass-plan v1\nprocesses 2\ntasks 2\np 1 : 0\np 0 : 1\n"),
               std::invalid_argument);  // out of order
  EXPECT_THROW(parse_assignment("opass-plan v1\nprocesses 1\ntasks 2\np 0 : 0 0\n"),
               std::invalid_argument);  // duplicate task
}

/// parse_assignment must throw std::invalid_argument whose message contains
/// `needle`.
void expect_rejected(const std::string& text, const std::string& needle) {
  try {
    (void)parse_assignment(text);
    FAIL() << "accepted:\n" << text;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
  }
}

TEST(PlanIo, ParseRejectsCountsOutsideTheIdRange) {
  // 2^32 + 1 tasks would wrap to 1 if cast to a 32-bit id.
  expect_rejected("opass-plan v1\nprocesses 1\ntasks 4294967297\np 0 : 0\n", "'tasks'");
  // A process count is not an allocation size.
  expect_rejected("opass-plan v1\nprocesses 100000000000000\ntasks 1\np 0 : 0\n",
                  "'processes'");
}

TEST(PlanIo, OverCountedProcessesFailAsTruncated) {
  // Inside the id range, but the file holds one process line: the parser
  // reads the lines it is given instead of sizing from the header.
  expect_rejected("opass-plan v1\nprocesses 4000000000\ntasks 1\np 0 : 0\n",
                  "plan truncated");
}

TEST(PlanIo, EmptyProcessListsSurvive) {
  const runtime::Assignment a{{}, {0}, {}};
  EXPECT_EQ(parse_assignment(serialize_assignment(a, 1)), a);
}

TEST(PlanIo, FileRoundTrip) {
  const runtime::Assignment a{{1, 2}, {0}};
  const std::string path = ::testing::TempDir() + "opass_plan_test.txt";
  save_assignment(path, a, 3);
  EXPECT_EQ(load_assignment(path), a);
  std::remove(path.c_str());
}

TEST(PlanIo, LoadMissingFileThrows) {
  EXPECT_THROW(load_assignment("/nonexistent/dir/plan.txt"), std::invalid_argument);
}

}  // namespace
}  // namespace opass::core
