#include "obs/timeline.hpp"

#include <cmath>
#include <utility>

#include "common/require.hpp"
#include "common/reserve.hpp"

namespace opass::obs {

namespace {

/// Boundary index of the last sample due at or before `now`:
/// floor(now / interval) with a relative epsilon so times that are
/// mathematically on a boundary but one ulp below it still count as on it.
std::uint64_t tick_floor(Seconds now, Seconds interval) {
  if (now <= 0) return 0;
  return static_cast<std::uint64_t>(std::floor(now / interval * (1.0 + 1e-12)));
}

bool lower_segment(const std::string& name, std::size_t begin, std::size_t end) {
  if (begin >= end) return false;
  for (std::size_t i = begin; i < end; ++i) {
    const char c = name[i];
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_';
    if (!ok) return false;
  }
  return true;
}

}  // namespace

const char* series_kind_name(SeriesKind kind) {
  return kind == SeriesKind::kLevel ? "level" : "rate";
}

bool valid_timeline_series_name(const std::string& name) {
  constexpr const char kPrefix[] = "timeline.";
  constexpr std::size_t kPrefixLen = sizeof(kPrefix) - 1;
  if (name.compare(0, kPrefixLen, kPrefix) != 0) return false;
  std::size_t segments = 1;  // "timeline"
  std::size_t begin = kPrefixLen;
  while (true) {
    const std::size_t dot = name.find('.', begin);
    const std::size_t end = dot == std::string::npos ? name.size() : dot;
    if (!lower_segment(name, begin, end)) return false;
    ++segments;
    if (dot == std::string::npos) break;
    begin = dot + 1;
  }
  return segments >= 3;
}

TimelineRecorder::TimelineRecorder(Seconds interval) : interval_(interval) {
  OPASS_REQUIRE(interval_ > 0, "sampling interval must be positive");
}

TimelineRecorder::SeriesId TimelineRecorder::add_level_series(const std::string& name,
                                                              double initial) {
  OPASS_REQUIRE(valid_timeline_series_name(name),
                "series name must follow the timeline.<subsystem>.<metric> taxonomy: " + name);
  OPASS_REQUIRE(index_.find(name, stored_name()) == NameIndex::kNone,
                "duplicate timeline series: " + name);
  OPASS_REQUIRE(next_tick_ == 0 && !finished_,
                "register every series before the first sample");
  Series& s = series_.emplace_back();
  s.name = name;
  s.kind = SeriesKind::kLevel;
  s.level = initial;
  const auto id = static_cast<SeriesId>(series_.size() - 1);
  index_.insert(id, s.name, stored_name());
  return id;
}

TimelineRecorder::SeriesId TimelineRecorder::add_rate_series(const std::string& name) {
  const SeriesId id = add_level_series(name, 0);
  series_[id].kind = SeriesKind::kRate;
  return id;
}

void TimelineRecorder::reserve(std::size_t count) {
  reserve_total(series_, series_.size() + count);
  index_.reserve(series_.size() + count, stored_name());
}

TimelineRecorder::Series& TimelineRecorder::checked(SeriesId id) {
  OPASS_REQUIRE(id < series_.size(), "unknown timeline series id");
  OPASS_REQUIRE(!finished_, "cannot record into a finished timeline");
  return series_[id];
}

void TimelineRecorder::record_level(SeriesId id, Seconds now, double value) {
  Series& s = checked(id);
  OPASS_REQUIRE(s.kind == SeriesKind::kLevel, "record_level on a rate series");
  advance_to(now);
  s.level = value;
}

void TimelineRecorder::record_rate(SeriesId id, Seconds now, double amount) {
  Series& s = checked(id);
  OPASS_REQUIRE(s.kind == SeriesKind::kRate, "record_rate on a level series");
  advance_to(now);
  s.accum += amount;
}

double* TimelineRecorder::row(std::uint64_t tick) const {
  const auto slot = static_cast<std::size_t>(tick % kRingCapacity);
  return blocks_[slot / kBlockTicks].get() + slot % kBlockTicks * series_.size();
}

void TimelineRecorder::emit_tick(Seconds duration) {
  const auto slot = static_cast<std::size_t>(next_tick_ % kRingCapacity);
  if (slot / kBlockTicks == blocks_.size()) {
    // Warm-up: the ring's next block, left uninitialized (every row is
    // written before it is read); allocation-free once the ring is whole.
    if (blocks_.empty()) blocks_.reserve(kRingCapacity / kBlockTicks);
    blocks_.push_back(std::make_unique_for_overwrite<double[]>(kBlockTicks * series_.size()));
  }
  double* samples = row(next_tick_);
  for (Series& s : series_) {
    double sample = s.level;
    if (s.kind == SeriesKind::kRate) {
      sample = s.accum / duration;
      s.accum = 0;
    }
    *samples++ = sample;
  }
  ++next_tick_;
}

void TimelineRecorder::advance_to(Seconds now) {
  OPASS_REQUIRE(!finished_, "cannot advance a finished timeline");
  const std::uint64_t last = tick_floor(now, interval_);
  while (next_tick_ <= last) emit_tick(interval_);
}

void TimelineRecorder::finish(Seconds end) {
  OPASS_REQUIRE(!finished_, "timeline already finished");
  advance_to(end);
  finished_ = true;
  end_time_ = end;
  // An end strictly inside an interval leaves an open remainder
  // [last_boundary, end); emit it as one partial sample scaled by its true
  // duration so trailing rate mass is never dropped.
  const Seconds covered = static_cast<double>(next_tick_ ? next_tick_ - 1 : 0) * interval_;
  const Seconds rest = end - covered;
  if (next_tick_ > 0 && rest > interval_ * 1e-9) {
    partial_duration_ = rest;
    for (Series& s : series_) {
      s.partial = s.kind == SeriesKind::kRate ? s.accum / rest : s.level;
      s.accum = 0;
    }
  } else if (next_tick_ > 0) {
    // The run ended exactly on a boundary. Events stamped at `end` were
    // charged to the next interval — which will never come — so restamp the
    // final boundary with the end state: rates fold the trailing
    // accumulation in, levels take their final value.
    double* samples = row(next_tick_ - 1);
    for (Series& s : series_) {
      if (s.kind == SeriesKind::kRate) {
        if (s.accum != 0) *samples += s.accum / interval_;
        s.accum = 0;
      } else {
        *samples = s.level;
      }
      ++samples;
    }
  }
}

const std::string& TimelineRecorder::series_name(SeriesId id) const {
  OPASS_REQUIRE(id < series_.size(), "unknown timeline series id");
  return series_[id].name;
}

SeriesKind TimelineRecorder::series_kind(SeriesId id) const {
  OPASS_REQUIRE(id < series_.size(), "unknown timeline series id");
  return series_[id].kind;
}

std::uint64_t TimelineRecorder::first_retained_tick() const {
  return next_tick_ > kRingCapacity ? next_tick_ - kRingCapacity : 0;
}

std::uint64_t TimelineRecorder::dropped_ticks() const { return first_retained_tick(); }

std::vector<double> TimelineRecorder::series_values(SeriesId id) const {
  OPASS_REQUIRE(id < series_.size(), "unknown timeline series id");
  const Series& s = series_[id];
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(next_tick_ - first_retained_tick()) +
              (partial_duration_ > 0 ? 1 : 0));
  for (std::uint64_t t = first_retained_tick(); t < next_tick_; ++t) out.push_back(row(t)[id]);
  if (partial_duration_ > 0) out.push_back(s.partial);
  return out;
}

// --- probe consumers --------------------------------------------------------

RunTimeline::RunTimeline(TimelineRecorder* recorder, sim::Cluster& cluster,
                         std::uint32_t process_count)
    : recorder_(recorder), cluster_(cluster) {
  if (recorder_ == nullptr) return;
  // A recorder carries series from at most one cluster/executor shape:
  // multi-step scenarios recreate RunTimeline only when they recreate the
  // cluster, and wiring the same recorder twice would double-register names
  // and trip the duplicate check. Cluster series register first, then the
  // executor's.
  const std::uint32_t m = cluster.node_count();
  // Two series per node, four cluster-wide, one per process, the queue depth.
  recorder_->reserve(2 * std::size_t{m} + 4 + process_count + 1);
  NameBuffer name("timeline.");
  node_rate_.reserve(m);
  node_inflight_.reserve(m);
  for (std::uint32_t n = 0; n < m; ++n) {
    node_rate_.push_back(
        recorder_->add_rate_series(name("cluster.node.", n, ".serve_bytes_per_s")));
    node_inflight_.push_back(recorder_->add_level_series(name("cluster.node.", n, ".inflight")));
  }
  total_rate_ = recorder_->add_rate_series(name("cluster.serve_bytes_per_s"));
  total_inflight_ = recorder_->add_level_series(name("cluster.inflight"));
  read_slots_ = recorder_->add_level_series(name("cluster.read_slots"));
  bytes_remaining_ = recorder_->add_level_series(name("cluster.bytes_remaining"));
  process_depth_.reserve(process_count);
  for (std::uint32_t p = 0; p < process_count; ++p)
    process_depth_.push_back(
        recorder_->add_level_series(name("executor.process.", p, ".depth")));
  queue_depth_ = recorder_->add_level_series(name("executor.queue_depth"));
  depth_.assign(process_count, 0);
  cluster_.set_probe(this);
}

RunTimeline::~RunTimeline() {
  if (recorder_ != nullptr) cluster_.set_probe(nullptr);
}

Probe* RunTimeline::executor_probe() { return recorder_ != nullptr ? this : nullptr; }

void RunTimeline::add_expected_bytes(Bytes bytes) {
  if (recorder_ == nullptr) return;
  remaining_ += static_cast<double>(bytes);
  recorder_->record_level(bytes_remaining_, cluster_.simulator().now(), remaining_);
}

void RunTimeline::finish() {
  if (recorder_ != nullptr) recorder_->finish(cluster_.simulator().now());
}

void RunTimeline::on_event(const ProbeEvent& event) {
  const Seconds now = event.at;
  switch (event.kind) {
    case ProbeKind::kReadIssued:
    case ProbeKind::kReadCompleted:
    case ProbeKind::kReadAborted: {
      const auto server = static_cast<std::size_t>(event.id);
      const bool per_node = server < node_inflight_.size();  // else it joined mid-run
      if (event.kind == ProbeKind::kReadIssued) {
        ++inflight_total_;
      } else {
        OPASS_CHECK(inflight_total_ > 0, "timeline in-flight underflow");
        --inflight_total_;
      }
      if (per_node)
        recorder_->record_level(node_inflight_[server], now,
                                cluster_.inflight_per_node()[server]);
      recorder_->record_level(total_inflight_, now, inflight_total_);
      if (event.kind == ProbeKind::kReadIssued) {
        recorder_->record_level(read_slots_, now, cluster_.read_slot_count());
      } else if (event.kind == ProbeKind::kReadCompleted) {
        // Aborted reads retry elsewhere; their bytes are still owed.
        const auto bytes = static_cast<double>(event.bytes);
        if (per_node) recorder_->record_rate(node_rate_[server], now, bytes);
        recorder_->record_rate(total_rate_, now, bytes);
        remaining_ -= bytes;
        recorder_->record_level(bytes_remaining_, now, remaining_);
      }
      return;
    }
    case ProbeKind::kOpBegin:
    case ProbeKind::kOpEnd: {
      OPASS_REQUIRE(event.id < depth_.size(), "process rank out of probe range");
      const auto process = static_cast<std::size_t>(event.id);
      if (event.kind == ProbeKind::kOpBegin) {
        ++depth_[process];
        ++total_depth_;
      } else {
        OPASS_CHECK(depth_[process] > 0, "process depth underflow");
        --depth_[process];
        --total_depth_;
      }
      recorder_->record_level(process_depth_[process], now, depth_[process]);
      recorder_->record_level(queue_depth_, now, total_depth_);
      return;
    }
    default:
      return;
  }
}

ServiceTimelineProbe::ServiceTimelineProbe(TimelineRecorder& recorder,
                                           const core::PlannerService& service,
                                           std::uint32_t tenant_count)
    : recorder_(recorder), service_(service), tenant_level_(tenant_count, 0) {
  queue_depth_ = recorder_.add_level_series("timeline.service.queue_depth");
  batch_jobs_ = recorder_.add_level_series("timeline.service.batch_jobs");
  batch_tasks_ = recorder_.add_level_series("timeline.service.batch_tasks");
  planned_rate_ = recorder_.add_rate_series("timeline.service.planned_tasks_per_s");
  local_rate_ = recorder_.add_rate_series("timeline.service.local_tasks_per_s");
  tenant_bytes_.reserve(tenant_count);
  NameBuffer name("timeline.service.tenant.");
  for (std::uint32_t i = 0; i < tenant_count; ++i)
    tenant_bytes_.push_back(recorder_.add_level_series(name(i, ".local_bytes")));
}

void ServiceTimelineProbe::on_event(const ProbeEvent& event) {
  switch (event.kind) {
    case ProbeKind::kJobQueued:
    case ProbeKind::kJobCancelled:
      recorder_.record_level(queue_depth_, event.at, event.count);
      return;
    case ProbeKind::kBatchPlanned:
      break;
    default:
      return;
  }
  const core::BatchReport& report = service_.last_batch();
  const Seconds now = report.planned_at;
  recorder_.record_level(queue_depth_, now, report.queue_depth_after);
  recorder_.record_level(batch_jobs_, now, report.jobs);
  recorder_.record_level(batch_tasks_, now, report.tasks);
  recorder_.record_rate(planned_rate_, now, report.tasks);
  recorder_.record_rate(local_rate_, now, report.locally_matched);
  for (const core::TenantBatchShare& share : report.tenants) {
    OPASS_REQUIRE(share.tenant < tenant_level_.size(),
                  "tenant id out of the probe's declared range");
    tenant_level_[share.tenant] += static_cast<double>(share.local_bytes);
    recorder_.record_level(tenant_bytes_[share.tenant], now,
                           tenant_level_[share.tenant]);
  }
}

}  // namespace opass::obs
