#include "runtime/static_partitioner.hpp"

#include <algorithm>

#include "common/require.hpp"

namespace opass::runtime {

Assignment rank_interval_assignment(std::uint32_t task_count, std::uint32_t process_count) {
  OPASS_REQUIRE(process_count > 0, "need at least one process");
  Assignment a(process_count);
  for (std::uint32_t i = 0; i < process_count; ++i) {
    // [ i*n/m, (i+1)*n/m ) with 64-bit intermediates to avoid overflow.
    const auto lo = static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(i) * task_count) / process_count);
    const auto hi = static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(i + 1) * task_count) / process_count);
    a[i].reserve(hi - lo);
    for (std::uint32_t t = lo; t < hi; ++t) a[i].push_back(t);
  }
  return a;
}

bool is_partition(const Assignment& a, std::uint32_t task_count) {
  std::vector<std::uint32_t> seen(task_count, 0);
  for (const auto& list : a)
    for (TaskId t : list) {
      if (t >= task_count) return false;
      ++seen[t];
    }
  return std::all_of(seen.begin(), seen.end(), [](std::uint32_t c) { return c == 1; });
}

}  // namespace opass::runtime
