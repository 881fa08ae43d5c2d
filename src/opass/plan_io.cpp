#include "opass/plan_io.hpp"

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>

#include "common/require.hpp"

namespace opass::core {

std::string serialize_assignment(const runtime::Assignment& assignment,
                                 std::uint32_t task_count) {
  OPASS_REQUIRE(runtime::is_partition(assignment, task_count),
                "assignment is not a partition of the task set");
  std::ostringstream os;
  os << "opass-plan v1\n";
  os << "processes " << assignment.size() << '\n';
  os << "tasks " << task_count << '\n';
  for (std::size_t p = 0; p < assignment.size(); ++p) {
    os << "p " << p << " :";
    for (runtime::TaskId t : assignment[p]) os << ' ' << t;
    os << '\n';
  }
  return os.str();
}

namespace {

/// Read the `<field> <count>` header line. A count must fit the 32-bit id
/// range: it is compared against ids, never used as an allocation size.
std::uint32_t parse_count(std::istream& is, const std::string& field) {
  std::string line, word;
  OPASS_REQUIRE(static_cast<bool>(std::getline(is, line)), "missing '" + field + "' line");
  std::istringstream ls(line);
  std::uint64_t count = 0;
  OPASS_REQUIRE((ls >> word) && word == field && (ls >> count),
                "malformed '" + field + "' line");
  OPASS_REQUIRE(count <= UINT32_MAX, "'" + field + "' count " + std::to_string(count) +
                                         " is outside the 32-bit id range");
  return static_cast<std::uint32_t>(count);
}

}  // namespace

runtime::Assignment parse_assignment(const std::string& text) {
  std::istringstream is(text);
  std::string line;

  OPASS_REQUIRE(std::getline(is, line) && line == "opass-plan v1",
                "plan header missing or unsupported version");

  const std::uint32_t processes = parse_count(is, "processes");
  OPASS_REQUIRE(processes > 0, "malformed 'processes' line");
  const std::uint32_t tasks = parse_count(is, "tasks");

  // Lists are appended as their lines arrive, so a header that over-counts
  // fails as truncated instead of sizing the assignment.
  runtime::Assignment assignment;
  std::string word;
  for (std::uint32_t expected = 0; expected < processes; ++expected) {
    OPASS_REQUIRE(static_cast<bool>(std::getline(is, line)),
                  "plan truncated: missing process line");
    std::istringstream ls(line);
    std::size_t p = 0;
    std::string colon;
    OPASS_REQUIRE((ls >> word) && word == "p" && (ls >> p) && (ls >> colon) && colon == ":",
                  "malformed process line: " + line);
    OPASS_REQUIRE(p == expected, "process lines out of order");
    auto& list = assignment.emplace_back();
    runtime::TaskId t;
    while (ls >> t) {
      OPASS_REQUIRE(t < tasks, "task id out of range in plan");
      list.push_back(t);
    }
    OPASS_REQUIRE(ls.eof(), "trailing garbage on process line: " + line);
  }

  OPASS_REQUIRE(runtime::is_partition(assignment, tasks),
                "plan is not a partition: duplicate or missing task ids");
  return assignment;
}

void save_assignment(const std::string& path, const runtime::Assignment& assignment,
                     std::uint32_t task_count) {
  std::ofstream out(path, std::ios::trunc);
  OPASS_REQUIRE(out.good(), "cannot open plan file for writing: " + path);
  out << serialize_assignment(assignment, task_count);
  OPASS_REQUIRE(out.good(), "failed writing plan file: " + path);
}

runtime::Assignment load_assignment(const std::string& path) {
  std::ifstream in(path);
  OPASS_REQUIRE(in.good(), "cannot open plan file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_assignment(buffer.str());
}

}  // namespace opass::core
