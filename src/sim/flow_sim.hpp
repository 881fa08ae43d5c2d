// Flow-level discrete-event simulator.
//
// A *flow* is a bulk data transfer (one chunk read) that traverses a set of
// resources (source disk; plus source/destination NICs when remote). At any
// instant, active flows receive a max-min fair allocation of resource
// capacities; the engine advances virtual time to the earliest flow
// completion or timer, fires callbacks (which may start new flows), and
// recomputes rates. This is the standard fluid approximation of TCP-like
// bandwidth sharing, and it is what turns "8 chunks served by one node" into
// "8x slower reads" — the paper's core observation.
//
// Disk resources additionally degrade under concurrency (head thrash): with k
// active flows, effective capacity = base / (1 + beta * (k - 1)).
//
// Scalability design (see DESIGN.md "Simulator scalability"): per-event cost
// depends on the *active* flow set, never on the total number of flows ever
// started. Retired flows return their slot to a free list (FlowIds carry a
// generation tag so stale handles stay inert) and leave each resource's flow
// list in O(path), because every flow's position in those lists is kept;
// completions come from an indexed earliest-ETA heap that holds exactly one
// estimate per moving flow (a rate change re-keys it in place, a stall or a
// cancel removes it, and a due entry is re-validated against exact remaining
// bytes); and rate recomputation re-levels only the connected component of
// resources a joining/leaving flow touches, using reusable workspace buffers
// (a one-flow component is leveled directly, without the water-fill's heaps).
// Byte and busy-time accounting is anchor-based: progress is committed when a
// flow's rate changes or the flow ends, and read-side accessors materialize
// the open interval, so advancing time is O(1) instead of O(active flows).
#pragma once

#include <cmath>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/inline_vector.hpp"
#include "common/require.hpp"
#include "common/units.hpp"

namespace opass::sim {

using ResourceId = std::uint32_t;

/// The resources one flow crosses. Six inline slots hold the longest path the
/// cluster builds (source disk, NIC out, NIC in, two rack links, destination
/// disk of a copy), so a flow's path lives in its slot with no heap block.
using FlowPath = InlineVector<ResourceId, 6>;

/// Opaque flow handle: low 32 bits address a reusable flow slot, high 32 bits
/// carry the creation tag that makes handles to retired flows inert.
using FlowId = std::uint64_t;

/// Attribution time base: virtual seconds quantized to integer nanoseconds.
/// All causal-tracing arithmetic (obs/spans) happens on these ticks so
/// interval durations sum *exactly* — chained boundaries telescope in int64
/// with no floating-point drift. Deterministic because the underlying doubles
/// are byte-identical across runs.
inline std::int64_t to_ticks(Seconds t) { return std::llround(t * 1e9); }

/// One binding-resource interval of a flow: over [start_ticks, end_ticks)
/// the flow's max-min rate was pinned by `resource` (the bottleneck whose
/// fair share it was frozen at), or by the flow's own rate cap when
/// `resource == kCapBinding`. Consecutive intervals chain (each close is the
/// next open), so their durations sum exactly to the flow's transfer time.
struct BindingInterval {
  std::int64_t start_ticks = 0;
  std::int64_t end_ticks = 0;
  ResourceId resource = 0;
};

/// Sentinel binding for "the flow's own rate_cap binds" (single-stream
/// protocol limit), distinguishable from any real ResourceId.
inline constexpr ResourceId kCapBinding = 0xffffffffu;

/// Max-min fair flow-level simulator.
class FlowSimulator {
 public:
  FlowSimulator() = default;

  /// Add a shared resource. `beta` is the concurrency degradation factor
  /// (0 for NICs/switches, > 0 for disks).
  ResourceId add_resource(BytesPerSec capacity, double beta = 0.0);

  std::uint32_t resource_count() const { return static_cast<std::uint32_t>(resources_.size()); }

  /// Change a resource's base capacity in place (slow-node degradation and
  /// restoration). Flows crossing the resource are re-leveled before the
  /// next event is processed, so the new rate takes effect at the current
  /// virtual time; progress up to now is committed at the old rate.
  void set_resource_capacity(ResourceId r, BytesPerSec capacity);

  /// Start a flow of `bytes` across `resources` now; `on_complete(end_time)`
  /// fires when the last byte arrives. Zero-byte flows complete immediately
  /// on the next event-loop step. `rate_cap` bounds the flow's own rate
  /// regardless of resource availability (models single-stream protocol
  /// limits, e.g. one HDFS read over one TCP connection); 0 means uncapped.
  FlowId start_flow(FlowPath resources, Bytes bytes, std::function<void(Seconds)> on_complete,
                    BytesPerSec rate_cap = 0);

  /// Schedule `fn(time)` at absolute virtual time `when` (>= now). run()
  /// fires every due timer, in (when, seq) order, before it re-levels, so
  /// timers of one `when` whose seqs no other timer of that `when` falls
  /// between may be merged into one timer that does their work in seq order
  /// (DESIGN.md §8): heartbeat rounds and batched sends rely on this.
  void at(Seconds when, std::function<void(Seconds)> fn);

  /// Schedule `fn(time)` after `delay` seconds.
  void after(Seconds delay, std::function<void(Seconds)> fn) { at(now_ + delay, std::move(fn)); }

  /// Cancel an in-flight flow: it releases its resources immediately and its
  /// completion callback never fires. No-op if already complete/cancelled.
  void cancel_flow(FlowId id);

  /// Opt in to binding-resource attribution: every re-level appends to each
  /// touched flow's interval list which constraint pinned its rate (the
  /// bottleneck resource, or kCapBinding when its own rate cap bound). Off by
  /// default — recording costs memory per active flow and must never perturb
  /// the simulation (it only observes the pin sequence, which is already
  /// byte-deterministic).
  void record_attribution(bool on) { record_attr_ = on; }

  /// Binding intervals of a flow that completed at the current event step;
  /// valid only inside its completion callback (the stash is dropped before
  /// the next event is processed). Returns nullptr when the id is unknown,
  /// the flow was cancelled, or recording is off. The intervals chain from
  /// the flow's start tick to its completion tick; zero-byte flows have an
  /// empty list (start == end).
  const std::vector<BindingInterval>* completed_attribution(FlowId id) const;

  /// Run until no flows or timers remain. Returns the final virtual time.
  Seconds run() { return run_until(kNever); }

  /// Run until `done` reads true or the simulator is idle, whichever comes
  /// first; returns the virtual time it stopped at. `done` is read between
  /// event steps only, after the last step's rate changes are applied, so a
  /// run that stops and resumes fires exactly the events one run() fires.
  Seconds run_until(const bool& done);

  Seconds now() const { return now_; }

  /// Number of flows currently in progress.
  std::size_t active_flows() const { return flows_active_; }

  /// Number of active flows using a resource (for load-aware policies).
  std::uint32_t resource_load(ResourceId r) const;

  /// Highest number of flows ever simultaneously active on the resource —
  /// the peak queue depth of the disk/NIC over the run so far.
  std::uint32_t resource_peak_load(ResourceId r) const;

  /// Number of flow arrivals that found the resource already occupied while
  /// its degradation factor is positive — i.e. how often a disk was pushed
  /// into the head-thrash regime (`cap / (1 + beta * (k - 1))`). Always 0
  /// for beta == 0 resources (NICs, uplinks).
  std::uint64_t resource_degraded_joins(ResourceId r) const;

  /// Cumulative time the resource had at least one active flow (busy time).
  Seconds resource_busy_time(ResourceId r) const;

  /// Cumulative bytes pushed through the resource by all flows crossing it.
  double resource_bytes_served(ResourceId r) const;

  // --- scalability observability -------------------------------------------

  /// Flow slots ever allocated. Slots are reused from a free list before the
  /// pool grows, so this equals the peak number of simultaneously live flows,
  /// not the total number of flows started.
  std::uint32_t flow_slot_count() const { return static_cast<std::uint32_t>(flows_.size()); }

  /// Highest number of flows simultaneously active over the run so far.
  std::uint32_t peak_active_flows() const { return peak_active_flows_; }

  /// Number of incremental rate recomputations performed.
  std::uint64_t rate_recomputes() const { return rate_recomputes_; }

  /// Cumulative flows re-leveled across all rate recomputations; divide by
  /// `rate_recomputes()` for the mean touched-component size.
  std::uint64_t rate_recompute_touched_flows() const { return rate_recompute_touched_; }

  /// Largest connected component (in flows) any single recomputation touched.
  std::uint32_t max_relevel_component() const { return max_relevel_component_; }

  /// Completion estimates superseded by a rate change or dropped by a stall
  /// or a cancel, counted when that happens. A lazily invalidated heap would
  /// pop each of them once as a stale entry, so after the simulator drains
  /// this is that heap's stale-pop count; a not-quite-done requeue counts
  /// nothing.
  std::uint64_t eta_stale_pops() const { return eta_stale_pops_; }

 private:
  static constexpr bool kNever = false;  ///< run()'s stop flag
  static constexpr std::uint32_t kNotQueued = 0xffffffffu;  ///< in eta_pos_

  struct Resource {
    BytesPerSec capacity = 0;
    double beta = 0;
    std::uint32_t active = 0;      // flows currently crossing this resource
    std::uint32_t peak_active = 0; // max concurrent flows seen so far
    std::uint64_t degraded_joins = 0;  // arrivals into an occupied beta>0 disk
    double busy_time = 0;          // closed busy intervals (active > 0 spans)
    Seconds busy_since = 0;        // open-interval start, valid while active > 0
    double bytes_served = 0;       // committed throughput (anchored progress)
    std::vector<std::uint32_t> flows;  // slots of flows crossing this resource
    bool dirty = false;            // membership changed since last re-level
    std::uint64_t visit = 0;       // component-BFS stamp
    // Water-filling scratch, valid only inside recompute_rates(). wf_epoch
    // stamps share-heap entries: any entry pushed before the last
    // remaining/unfixed change is stale.
    double remaining = 0;
    std::uint32_t unfixed = 0;
    std::uint32_t wf_epoch = 0;
  };

  struct Flow {
    FlowPath resources;
    double bytes_anchor = 0;   // bytes left as of anchor_time
    Seconds anchor_time = 0;   // last rate change (progress committed up to here)
    double rate = 0;
    double rate_cap = 0;       // 0 = uncapped
    std::function<void(Seconds)> on_complete;
    std::uint64_t seq = 0;     // creation sequence; low 32 bits tag the FlowId
    bool active = false;
    std::uint64_t visit = 0;   // component-BFS stamp
    std::uint64_t fixed = 0;   // == visit stamp once pinned in this re-level
    // Binding-interval history (record_attribution only). The last entry is
    // the open interval; its end_ticks is stale until the next close.
    std::vector<BindingInterval> attr;
  };

  /// A flow's index in the flow list of each resource on its path:
  /// positions_[slot][i] is the flow's index in
  /// resources_[flows_[slot].resources[i]].flows. Kept beside flows_, not in
  /// Flow, because only starting and retiring a flow read it.
  using FlowPositions = InlineVector<std::uint32_t, FlowPath::kInlineCapacity>;

  struct Timer {
    Seconds when;
    std::uint64_t seq;
    std::function<void(Seconds)> fn;
    bool operator>(const Timer& o) const {
      return when != o.when ? when > o.when : seq > o.seq;
    }
  };

  /// A flow's one queued completion estimate, ordered by (when, seq); its
  /// index in etas_ is eta_pos_[slot]. Re-validated against exact remaining
  /// bytes once it is due.
  struct Eta {
    Seconds when;
    std::uint64_t seq;
    std::uint32_t slot;
    bool operator<(const Eta& o) const {
      return when != o.when ? when < o.when : seq < o.seq;
    }
  };

  /// Share-heap entry for water-filling: a resource's fair share at the time
  /// of the push; stale once the resource's wf_epoch moved on.
  struct ShareEntry {
    double share;
    ResourceId r;
    std::uint32_t epoch;
    bool operator>(const ShareEntry& o) const {
      return share != o.share ? share > o.share : r > o.r;
    }
  };

  /// Cap-heap entry: an unfixed capped flow, stale once the flow is pinned.
  struct CapEntry {
    double cap;
    std::uint64_t seq;
    std::uint32_t slot;
    bool operator>(const CapEntry& o) const {
      return cap != o.cap ? cap > o.cap : seq > o.seq;
    }
  };

  static std::uint32_t slot_of(FlowId id) { return static_cast<std::uint32_t>(id); }
  static std::uint32_t tag_of(FlowId id) { return static_cast<std::uint32_t>(id >> 32); }

  double bytes_left_at(const Flow& f, Seconds t) const;
  void mark_dirty(ResourceId r);
  void queue_eta(const Eta& e);
  void place_eta(std::uint32_t pos, const Eta& e);
  void sift_eta_up(std::uint32_t pos);
  void sift_eta_down(std::uint32_t pos);
  void drop_eta(std::uint32_t pos);
  void discard_eta(std::uint32_t slot);
  void update_eta(std::uint32_t slot);
  void commit_progress(Flow& f);
  void note_binding(Flow& f, ResourceId binding);
  void stash_attribution(std::uint32_t slot);
  void set_rate(std::uint32_t slot, double rate, ResourceId binding);
  void level_one_flow(std::uint32_t slot);
  void water_fill();
  void detach(std::uint32_t slot, std::size_t i);
  void retire_slot(std::uint32_t slot);
  void recompute_rates();
  void advance_to(Seconds t);
  void audit_retired_slot(std::uint32_t slot) const;

  std::vector<Resource> resources_;
  std::vector<Flow> flows_;                  // slot pool; retired slots are reused
  std::vector<FlowPositions> positions_;     // per slot, parallel to flows_
  std::vector<std::uint32_t> eta_pos_;       // per slot: index in etas_, or kNotQueued
  std::vector<std::uint32_t> free_slots_;
  std::size_t flows_active_ = 0;
  std::uint32_t peak_active_flows_ = 0;
  std::vector<Timer> timers_;                // min-heap via std::push_heap/pop_heap
  std::vector<Eta> etas_;                    // indexed min-heap, one entry per moving flow
  Seconds now_ = 0;
  std::uint64_t timer_seq_ = 0;
  std::uint64_t flow_seq_ = 0;
  std::uint64_t visit_stamp_ = 0;
  std::vector<std::uint32_t> dirty_resources_;

  // Reusable workspaces (steady-state allocation-free, cf. graph::FlowWorkspace).
  std::vector<std::uint32_t> comp_resources_;
  std::vector<std::uint32_t> comp_flows_;
  std::vector<ShareEntry> share_heap_;
  std::vector<CapEntry> cap_heap_;
  std::vector<Eta> requeued_;
  std::vector<std::uint32_t> completed_;
  std::vector<std::function<void(Seconds)>> callbacks_;

  // Attribution recording (record_attribution). finished_attr_ stashes the
  // interval lists of the flows completing at the current event step, keyed
  // by their full FlowId, for completion callbacks to pick up; it is dropped
  // before the next event is processed.
  bool record_attr_ = false;
  std::vector<std::pair<FlowId, std::vector<BindingInterval>>> finished_attr_;

  std::uint64_t rate_recomputes_ = 0;
  std::uint64_t rate_recompute_touched_ = 0;
  std::uint32_t max_relevel_component_ = 0;
  std::uint64_t eta_stale_pops_ = 0;
};

}  // namespace opass::sim
