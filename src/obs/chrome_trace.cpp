#include "obs/chrome_trace.hpp"

#include <algorithm>
#include <charconv>

#include "common/require.hpp"
#include "common/reserve.hpp"
#include "obs/metrics_io.hpp"

namespace opass::obs {

namespace {

constexpr double kMicrosPerSecond = 1e6;

}  // namespace

std::uint32_t ChromeTraceBuilder::intern(const std::string& name) {
  if (names_.empty() || names_.back() != name) names_.push_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::string_view ChromeTraceBuilder::name_of(const Event& e, char (&buf)[32]) const {
  if (e.label == Label::kNamed) return names_[e.name];
  const std::string_view prefix = e.label == Label::kReadChunk ? "read chunk " : "task ";
  const std::size_t n = prefix.copy(buf, prefix.size());
  const char* end = std::to_chars(buf + n, buf + sizeof buf, e.id).ptr;
  return {buf, static_cast<std::size_t>(end - buf)};
}

void ChromeTraceBuilder::set_process_name(std::uint32_t pid, const std::string& name) {
  for (auto& entry : process_names_) {
    if (entry.first == pid) {
      entry.second = name;
      return;
    }
  }
  process_names_.emplace_back(pid, name);
}

void ChromeTraceBuilder::add_execution(const runtime::ExecutionResult& result,
                                       std::uint32_t pid) {
  reserve_total(events_,
                events_.size() + result.trace.records().size() + result.task_spans.size());
  for (const sim::ReadRecord& r : result.trace.records()) {
    OPASS_REQUIRE(r.end_time >= r.issue_time, "read record with negative duration");
    Event e;
    e.ts_us = r.issue_time * kMicrosPerSecond;
    e.dur_us = r.io_time() * kMicrosPerSecond;
    e.id = r.chunk;
    e.bytes = r.bytes;
    e.pid = pid;
    e.tid = r.process;
    e.server = r.serving_node;
    e.cat = "read";
    e.label = Label::kReadChunk;
    e.local = r.local;
    events_.push_back(e);
  }
  for (const runtime::TaskSpan& s : result.task_spans) {
    OPASS_REQUIRE(s.end >= s.start, "task span with negative duration");
    Event e;
    e.ts_us = s.start * kMicrosPerSecond;
    e.dur_us = (s.end - s.start) * kMicrosPerSecond;
    e.id = s.task;
    e.pid = pid;
    e.tid = s.process;
    e.cat = "task";
    e.label = Label::kTask;
    events_.push_back(e);
  }
}

void ChromeTraceBuilder::add_counter(std::uint32_t pid, const std::string& name,
                                     double ts_us, double value) {
  OPASS_REQUIRE(ts_us >= 0, "counter sample before the epoch");
  Event e;
  e.ts_us = ts_us;
  e.value = value;
  e.pid = pid;
  e.ph = 'C';
  e.name = intern(name);
  e.cat = "counter";
  events_.push_back(e);
}

void ChromeTraceBuilder::add_instant(std::uint32_t pid, const std::string& name,
                                     double ts_us, const char* category) {
  OPASS_REQUIRE(ts_us >= 0, "instant event before the epoch");
  Event e;
  e.ts_us = ts_us;
  e.pid = pid;
  e.ph = 'i';
  e.name = intern(name);
  e.cat = category;
  events_.push_back(e);
}

void ChromeTraceBuilder::add_flow_step(std::uint32_t pid, std::uint32_t tid,
                                       double ts_us, char ph, std::uint64_t flow_id) {
  OPASS_REQUIRE(ph == 's' || ph == 'f', "flow event phase must be 's' or 'f'");
  OPASS_REQUIRE(ts_us >= 0, "flow event before the epoch");
  Event e;
  e.ts_us = ts_us;
  e.id = flow_id;
  e.pid = pid;
  e.tid = tid;
  e.ph = ph;
  e.name = intern("critical_path");
  e.cat = "critical_path";
  events_.push_back(e);
}

std::string ChromeTraceBuilder::json() const {
  // Sorted by (ts, pid, tid, name); the names render only to break a tie.
  std::vector<const Event*> order;
  order.reserve(events_.size());
  for (const Event& e : events_) order.push_back(&e);
  std::stable_sort(order.begin(), order.end(), [this](const Event* a, const Event* b) {
    if (a->ts_us < b->ts_us) return true;
    if (b->ts_us < a->ts_us) return false;
    if (a->pid != b->pid) return a->pid < b->pid;
    if (a->tid != b->tid) return a->tid < b->tid;
    char abuf[32], bbuf[32];
    return name_of(*a, abuf) < name_of(*b, bbuf);
  });

  std::string out;
  out.reserve(160 * events_.size() + 1024);  // a rendered event is ~140 bytes
  SinkWriter w(out);
  w << "{\"traceEvents\": [";
  bool first = true;
  const auto next = [&w, &first]() -> SinkWriter& {
    w << (first ? "\n  " : ",\n  ");
    first = false;
    return w;
  };
  // Metadata block, sorted by pid: a name pins the group label, the
  // sort_index events pin numeric group/track order (the viewer's default is
  // lexicographic, which misplaces rank 10 before rank 2).
  std::vector<std::pair<std::uint32_t, std::string>> names = process_names_;
  std::sort(names.begin(), names.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [pid, name] : names) {
    next() << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": " << pid
           << ", \"tid\": 0, \"args\": {\"name\": \"" << name << "\"}}";
    next() << "{\"name\": \"process_sort_index\", \"ph\": \"M\", \"pid\": " << pid
           << ", \"tid\": 0, \"args\": {\"sort_index\": " << pid << "}}";
  }
  std::vector<std::pair<std::uint32_t, std::uint32_t>> tracks;
  for (const Event& e : events_)
    if (e.ph == 'X') tracks.emplace_back(e.pid, e.tid);
  std::sort(tracks.begin(), tracks.end());
  tracks.erase(std::unique(tracks.begin(), tracks.end()), tracks.end());
  for (const auto& [pid, tid] : tracks) {
    next() << "{\"name\": \"thread_sort_index\", \"ph\": \"M\", \"pid\": " << pid
           << ", \"tid\": " << tid << ", \"args\": {\"sort_index\": " << tid << "}}";
  }
  for (const Event* e : order) {
    char buf[32];
    next() << "{\"name\": \"" << name_of(*e, buf) << "\", \"cat\": \"" << e->cat << '"';
    if (e->ph == 'X') {
      w << ", \"ph\": \"X\", \"ts\": " << e->ts_us << ", \"dur\": " << e->dur_us;
    } else if (e->ph == 'i') {
      w << ", \"ph\": \"i\", \"s\": \"g\", \"ts\": " << e->ts_us;
    } else if (e->ph == 's' || e->ph == 'f') {
      w << ", \"ph\": \"" << e->ph << '"';
      if (e->ph == 'f') w << ", \"bp\": \"e\"";
      w << ", \"id\": " << e->id << ", \"ts\": " << e->ts_us;
    } else {
      w << ", \"ph\": \"C\", \"ts\": " << e->ts_us;
    }
    w << ", \"pid\": " << e->pid << ", \"tid\": " << e->tid;
    if (e->label == Label::kReadChunk) {
      w << ", \"args\": {\"chunk\": " << e->id << ", \"bytes\": " << e->bytes
        << ", \"server\": " << e->server << ", \"local\": " << (e->local ? "true" : "false")
        << '}';
    } else if (e->ph == 'C') {
      w << ", \"args\": {\"value\": " << e->value << '}';
    }
    w << '}';
  }
  w << (first ? "], " : "\n], ") << "\"displayTimeUnit\": \"ms\"}\n";
  w.flush();
  return out;
}

}  // namespace opass::obs
