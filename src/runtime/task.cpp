#include "runtime/task.hpp"

namespace opass::runtime {

std::vector<Task> single_input_tasks(const dfs::NameNode& nn,
                                     const std::vector<dfs::FileId>& files,
                                     Seconds compute_time) {
  std::size_t count = 0;
  for (auto fid : files) count += nn.file(fid).chunks.size();
  std::vector<Task> tasks;
  tasks.reserve(count);
  for (auto fid : files) {
    for (auto cid : nn.file(fid).chunks) {
      Task t;
      t.id = static_cast<TaskId>(tasks.size());
      t.inputs = {cid};
      t.compute_time = compute_time;
      tasks.push_back(std::move(t));
    }
  }
  return tasks;
}

Bytes total_task_bytes(const dfs::NameNode& nn, const std::vector<Task>& tasks) {
  Bytes total = 0;
  for (const auto& t : tasks) total += t.input_bytes(nn);
  return total;
}

}  // namespace opass::runtime
