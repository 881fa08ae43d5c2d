// Deterministic virtual-time sampler: fixed-interval time series driven by
// the simulator clock.
//
// The end-state aggregates of obs/collect.hpp answer "how imbalanced was the
// run"; the paper's Section III analysis needs "how did the imbalance
// *evolve*" — which nodes served how fast at which point of the run, where
// the queue depth collapsed to a straggler tail. TimelineRecorder captures
// that: named series sampled at fixed virtual-time boundaries, updated from
// the probe events of the measured subsystems (common/probe.hpp).
//
// Sampling model. Virtual time is partitioned into intervals of `interval`
// seconds; sample k is stamped at boundary t_k = k * interval. Callers feed
// state transitions through record_level()/record_rate(); every record first
// emits all boundaries up to the event time (levels repeat their current
// value, rate accumulators convert to per-second averages and reset), then
// applies the update. An event landing *exactly* on a boundary is therefore
// excluded from that boundary's sample and charged to the next interval —
// the convention tests/obs/timeline_test.cpp pins. finish(end) flushes the
// trailing boundaries; when `end` falls strictly inside an interval the
// remainder is emitted as one partial sample scaled by its true duration
// (partial_duration()). An `end` landing exactly on a boundary produces no
// partial sample; instead the final boundary is restamped with the end state
// (rates fold the trailing accumulation in, levels take their final value),
// so run-final events are never dropped.
//
// Determinism & cost. Samples are pure functions of the (deterministic)
// event sequence — no wall clock anywhere — so a seeded run reproduces every
// series byte-identically. Samples are stored tick by tick: one row of
// series_count() doubles per tick, in blocks of kBlockTicks rows that are
// allocated as ticks arrive and never copied. The blocks form a ring of
// kRingCapacity ticks; past it, each tick overwrites the oldest (counted by
// dropped_ticks()), so once warm, recording is allocation-free, which keeps
// the sim hot path clean. Registration checks each name against a hash index
// over the names the series already store (obs/names.hpp), so registering a
// run's series costs time linear in their number.
//
// Naming. Every series name must follow the `timeline.<subsystem>.<metric>`
// taxonomy (lowercase [a-z0-9_] segments, at least three); registration
// enforces it (OPASS_REQUIRE) and tools/opass_lint.py's timeline-metric-name
// rule checks the literals statically.
//
// The analytics pass over finished series lives in obs/analytics.hpp; the
// HTML/JSON renderers in obs/report.hpp.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/probe.hpp"
#include "common/units.hpp"
#include "obs/names.hpp"
#include "opass/service.hpp"
#include "sim/cluster.hpp"

namespace opass::obs {

/// How a series turns state transitions into samples.
enum class SeriesKind {
  kLevel,  ///< piecewise-constant value; sampled as-is at each boundary
  kRate,   ///< per-interval accumulation, emitted as amount per second
};

/// Canonical lowercase name ("level", "rate").
const char* series_kind_name(SeriesKind kind);

/// True iff `name` follows the `timeline.<subsystem>.<metric>` taxonomy:
/// at least three dot-separated segments of [a-z0-9_]+ (first = "timeline").
bool valid_timeline_series_name(const std::string& name);

/// Fixed-interval virtual-time sampler (see file comment for the model).
class TimelineRecorder {
 public:
  using SeriesId = std::uint32_t;

  /// Max retained ticks per series (ring).
  static constexpr std::size_t kRingCapacity = 8192;
  /// Ticks per sample block (a block holds this many rows of every series).
  static constexpr std::size_t kBlockTicks = 64;
  static_assert(kRingCapacity % kBlockTicks == 0, "the ring is whole blocks");

  /// Samples every `interval` virtual seconds.
  explicit TimelineRecorder(Seconds interval = 0.5);

  /// Register a piecewise-constant series starting at `initial`. Names must
  /// pass valid_timeline_series_name() and be unique.
  SeriesId add_level_series(const std::string& name, double initial = 0);

  /// Register a per-interval accumulation series (emitted as amount/second).
  SeriesId add_rate_series(const std::string& name);

  /// Make room for `count` more series, so registering them grows the
  /// table and its name index once.
  void reserve(std::size_t count);

  /// Set a level series to `value` as of virtual time `now` (>= last event).
  void record_level(SeriesId id, Seconds now, double value);

  /// Accumulate `amount` into a rate series' current interval as of `now`.
  void record_rate(SeriesId id, Seconds now, double amount);

  /// Emit every boundary <= `now` (idempotent; record_* call it themselves).
  void advance_to(Seconds now);

  /// Flush the run end: emits boundaries <= `end`, then one partial sample
  /// for the open remainder when `end` is strictly inside an interval.
  /// Recording past finish() is an error; finish() twice is an error.
  void finish(Seconds end);

  Seconds interval() const { return interval_; }
  bool finished() const { return finished_; }
  Seconds end_time() const { return end_time_; }

  /// Duration of the trailing partial sample; 0 when the run ended exactly
  /// on a boundary (or finish() has not run).
  Seconds partial_duration() const { return partial_duration_; }

  std::size_t series_count() const { return series_.size(); }
  const std::string& series_name(SeriesId id) const;
  SeriesKind series_kind(SeriesId id) const;

  /// Samples of one series in tick order, oldest retained tick first,
  /// including the trailing partial sample (if any). Materializes out of the
  /// blocks — export-path only.
  std::vector<double> series_values(SeriesId id) const;

  /// Boundary samples emitted so far (identical across series; the partial
  /// sample is not counted).
  std::uint64_t tick_count() const { return next_tick_; }

  /// Oldest tick still retained (> 0 once the ring wrapped).
  std::uint64_t first_retained_tick() const;

  /// Ticks overwritten by ring wrap-around, summed over the run.
  std::uint64_t dropped_ticks() const;

 private:
  struct Series {
    std::string name;
    SeriesKind kind = SeriesKind::kLevel;
    double level = 0;              // current value (kLevel)
    double accum = 0;              // current interval's accumulation (kRate)
    double partial = 0;            // trailing partial sample, valid when
                                   // partial_duration_ > 0
  };

  void emit_tick(Seconds duration);
  Series& checked(SeriesId id);
  /// The row of tick `tick` (one sample per series), in its ring block.
  double* row(std::uint64_t tick) const;
  auto stored_name() const {
    return [this](std::uint32_t i) -> std::string_view { return series_[i].name; };
  }

  Seconds interval_ = 0.5;
  std::vector<Series> series_;
  NameIndex index_;  // over series_[i].name
  /// Ring of kRingCapacity / kBlockTicks blocks, allocated as ticks reach
  /// them: tick t's row is row t % kBlockTicks of block
  /// (t % kRingCapacity) / kBlockTicks.
  std::vector<std::unique_ptr<double[]>> blocks_;
  std::uint64_t next_tick_ = 0;    // next boundary index to emit
  bool finished_ = false;
  Seconds end_time_ = 0;
  Seconds partial_duration_ = 0;
};

// --- probe consumers (common/probe.hpp) ---------------------------------------
// obs/fault_log.hpp holds the fault-side one.

/// Run-side consumer, attached to the cluster and the executor. From the
/// cluster's read events: per-node serve rate and in-flight reads, plus
/// cluster-wide serve rate, in-flight, read-slot and bytes-remaining series.
/// From the executor's op events: per-process operation depth (in-flight
/// reads + compute) and the cluster-wide queue depth. A node that joins
/// mid-run has no series of its own (the recorder registers every series
/// before its first sample); its reads count in the cluster-wide series.
/// Every method is a no-op when `recorder` is null, so call sites stay
/// branch-free. Attaches itself to the cluster on construction and detaches
/// on destruction.
class RunTimeline final : public Probe {
 public:
  RunTimeline(TimelineRecorder* recorder, sim::Cluster& cluster,
              std::uint32_t process_count);
  ~RunTimeline() override;

  /// Probe pointer for ExecutorConfig::probe (null when disabled).
  Probe* executor_probe();

  /// Grow the `timeline.cluster.bytes_remaining` level by the bytes the run
  /// is about to read (call before the reads are issued).
  void add_expected_bytes(Bytes bytes);

  /// Flush the recorder at the cluster's current virtual time.
  void finish();

  void on_event(const ProbeEvent& event) override;

 private:
  TimelineRecorder* recorder_;
  sim::Cluster& cluster_;
  std::vector<TimelineRecorder::SeriesId> node_rate_, node_inflight_, process_depth_;
  TimelineRecorder::SeriesId total_rate_ = 0, total_inflight_ = 0, read_slots_ = 0,
                             bytes_remaining_ = 0, queue_depth_ = 0;
  std::uint32_t inflight_total_ = 0;
  double remaining_ = 0;
  std::vector<std::uint32_t> depth_;  ///< per-process operation depth
  std::uint32_t total_depth_ = 0;
};

/// Planning-service consumer: queue depth, batch shape, planned/local task
/// rates, and per-tenant cumulative locally-assigned bytes, read from the
/// service's last_batch() on every kBatchPlanned. The recorder requires
/// every series before the first sample, so the tenant id space must be
/// declared up front: tenant ids must be dense in [0, tenant_count).
class ServiceTimelineProbe final : public Probe {
 public:
  ServiceTimelineProbe(TimelineRecorder& recorder, const core::PlannerService& service,
                       std::uint32_t tenant_count);

  void on_event(const ProbeEvent& event) override;

 private:
  TimelineRecorder& recorder_;
  const core::PlannerService& service_;
  TimelineRecorder::SeriesId queue_depth_ = 0, batch_jobs_ = 0, batch_tasks_ = 0,
                             planned_rate_ = 0, local_rate_ = 0;
  std::vector<TimelineRecorder::SeriesId> tenant_bytes_;
  std::vector<double> tenant_level_;
};

}  // namespace opass::obs
