#include "sim/flow_sim.hpp"

#include <algorithm>
#include <limits>

namespace opass::sim {

namespace {
constexpr double kEps = 1e-9;      // FP slack for time comparisons (seconds)
constexpr double kByteEps = 1e-3;  // FP slack for transfer completion (bytes);
                                   // must exceed the rounding error of
                                   // rate * dt on multi-MB transfers (~1e-8 B)
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

ResourceId FlowSimulator::add_resource(BytesPerSec capacity, double beta) {
  OPASS_REQUIRE(capacity > 0, "resource capacity must be positive");
  OPASS_REQUIRE(beta >= 0, "degradation factor must be non-negative");
  Resource res;
  res.capacity = capacity;
  res.beta = beta;
  resources_.push_back(std::move(res));
  return static_cast<ResourceId>(resources_.size() - 1);
}

double FlowSimulator::bytes_left_at(const Flow& f, Seconds t) const {
  double left = f.bytes_anchor;
  if (f.rate > 0 && t > f.anchor_time) left -= f.rate * (t - f.anchor_time);
  return left;
}

void FlowSimulator::set_resource_capacity(ResourceId r, BytesPerSec capacity) {
  OPASS_REQUIRE(r < resources_.size(), "resource out of range");
  OPASS_REQUIRE(capacity > 0, "resource capacity must be positive");
  if (resources_[r].capacity == capacity) return;
  resources_[r].capacity = capacity;
  mark_dirty(r);
}

void FlowSimulator::mark_dirty(ResourceId r) {
  Resource& res = resources_[r];
  if (!res.dirty) {
    res.dirty = true;
    dirty_resources_.push_back(r);
  }
}

void FlowSimulator::place_eta(std::uint32_t pos, const Eta& e) {
  etas_[pos] = e;
  eta_pos_[e.slot] = pos;
}

void FlowSimulator::sift_eta_up(std::uint32_t pos) {
  const Eta e = etas_[pos];
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) / 2;
    if (!(e < etas_[parent])) break;
    place_eta(pos, etas_[parent]);
    pos = parent;
  }
  place_eta(pos, e);
}

void FlowSimulator::sift_eta_down(std::uint32_t pos) {
  const Eta e = etas_[pos];
  const auto n = static_cast<std::uint32_t>(etas_.size());
  for (;;) {
    std::uint32_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && etas_[child + 1] < etas_[child]) ++child;
    if (!(etas_[child] < e)) break;
    place_eta(pos, etas_[child]);
    pos = child;
  }
  place_eta(pos, e);
}

/// Queue the estimate of a flow that has none queued.
void FlowSimulator::queue_eta(const Eta& e) {
  const auto pos = static_cast<std::uint32_t>(etas_.size());
  etas_.push_back(e);
  sift_eta_up(pos);
}

/// Remove the estimate at heap index `pos`. The hole sinks to a leaf along
/// the earlier child, one comparison a level, and the last entry rises into
/// it from there (std::pop_heap's order of work).
void FlowSimulator::drop_eta(std::uint32_t pos) {
  eta_pos_[etas_[pos].slot] = kNotQueued;
  const Eta last = etas_.back();
  etas_.pop_back();
  const auto n = static_cast<std::uint32_t>(etas_.size());
  if (pos == n) return;
  for (std::uint32_t child = 2 * pos + 1; child < n; child = 2 * pos + 1) {
    if (child + 1 < n && etas_[child + 1] < etas_[child]) ++child;
    place_eta(pos, etas_[child]);
    pos = child;
  }
  etas_[pos] = last;
  sift_eta_up(pos);
}

/// Drop the flow's queued estimate, if it has one, counting it stale
/// (eta_stale_pops()).
void FlowSimulator::discard_eta(std::uint32_t slot) {
  if (eta_pos_[slot] == kNotQueued) return;
  ++eta_stale_pops_;
  drop_eta(eta_pos_[slot]);
}

/// Bring the flow's one estimate in line with its rate and anchor: queue it,
/// re-key it in place, or discard it when the flow stalls. A queued estimate
/// that is re-keyed or discarded counts as stale (eta_stale_pops()).
void FlowSimulator::update_eta(std::uint32_t slot) {
  const Flow& f = flows_[slot];
  const std::uint32_t pos = eta_pos_[slot];
  double eta;
  if (f.bytes_anchor <= kByteEps) {
    eta = now_;  // completes on the next event-loop step
  } else if (f.rate > 0) {
    eta = f.anchor_time + f.bytes_anchor / f.rate;
  } else {
    discard_eta(slot);  // stalled: cannot complete until a rate change queues it
    return;
  }
  if (pos == kNotQueued) {
    queue_eta({eta, f.seq, slot});
    return;
  }
  ++eta_stale_pops_;
  const bool earlier = eta < etas_[pos].when;
  etas_[pos].when = eta;
  if (earlier) {
    sift_eta_up(pos);
  } else {
    sift_eta_down(pos);
  }
}

/// Fold the open progress interval [anchor_time, now] into the flow's byte
/// balance and its resources' served totals, and move the anchor to now.
void FlowSimulator::commit_progress(Flow& f) {
  if (now_ > f.anchor_time) {
    if (f.rate > 0) {
      const double moved = f.rate * (now_ - f.anchor_time);
      f.bytes_anchor -= moved;
      if (f.bytes_anchor < kByteEps) f.bytes_anchor = 0;
      for (ResourceId r : f.resources) resources_[r].bytes_served += moved;
    }
    f.anchor_time = now_;
  }
}

/// Record that `f`'s rate is pinned by `binding` from now on. Same-binding
/// re-levels keep the open interval; a change closes it at the current tick
/// and opens a new one. Multiple re-levels within one instant leave at most
/// one interval (zero-width predecessors are superseded in place, possibly
/// reopening an earlier same-binding interval whose stale end is rewritten
/// on the next close). Boundaries chain exactly, so durations telescope to
/// the flow's transfer time in integer math.
void FlowSimulator::note_binding(Flow& f, ResourceId binding) {
  const std::int64_t t = to_ticks(now_);
  while (!f.attr.empty()) {
    BindingInterval& last = f.attr.back();
    if (last.resource == binding) return;  // unchanged (or reopened) — stay open
    if (last.start_ticks >= t) {
      f.attr.pop_back();  // zero-width: superseded within the same instant
      continue;
    }
    last.end_ticks = t;  // close the open interval at the change point
    break;
  }
  f.attr.push_back({t, t, binding});
}

/// Close a completing flow's open interval at the completion tick and move
/// its history into the per-event stash for the completion callback to read.
void FlowSimulator::stash_attribution(std::uint32_t slot) {
  Flow& f = flows_[slot];
  const std::int64_t t = to_ticks(now_);
  while (!f.attr.empty() && f.attr.back().start_ticks >= t) f.attr.pop_back();
  if (!f.attr.empty()) f.attr.back().end_ticks = t;
  const FlowId id = (static_cast<FlowId>(static_cast<std::uint32_t>(f.seq)) << 32) | slot;
  finished_attr_.emplace_back(id, std::move(f.attr));
}

const std::vector<BindingInterval>* FlowSimulator::completed_attribution(FlowId id) const {
  for (const auto& [fid, intervals] : finished_attr_)
    if (fid == id) return &intervals;
  return nullptr;
}

void FlowSimulator::set_rate(std::uint32_t slot, double rate, ResourceId binding) {
  Flow& f = flows_[slot];
  // The binding can move between resources of equal fair share without the
  // rate changing, so note it before the unchanged-rate early return.
  if (record_attr_) note_binding(f, binding);
  if (f.rate == rate) return;  // unchanged — the queued ETA stays valid
  commit_progress(f);
  f.anchor_time = now_;
  f.rate = rate;
  update_eta(slot);
}

FlowId FlowSimulator::start_flow(FlowPath resources, Bytes bytes,
                                 std::function<void(Seconds)> on_complete,
                                 BytesPerSec rate_cap) {
  OPASS_REQUIRE(!resources.empty(), "a flow must cross at least one resource");
  OPASS_REQUIRE(rate_cap >= 0, "rate cap must be non-negative");
  for (ResourceId r : resources)
    OPASS_REQUIRE(r < resources_.size(), "flow references unknown resource");

  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    OPASS_CHECK(flows_.size() < 0xffffffffull, "flow slot space exhausted");
    slot = static_cast<std::uint32_t>(flows_.size());
    flows_.emplace_back();
    positions_.emplace_back();
    eta_pos_.push_back(kNotQueued);
  }
  Flow& f = flows_[slot];
  FlowPositions& at = positions_[slot];
  OPASS_CHECK(!f.active && f.resources.empty() && at.empty() && !f.on_complete &&
                  eta_pos_[slot] == kNotQueued,
              "flow slot reused before being fully retired");
  f.resources = std::move(resources);
  f.bytes_anchor = static_cast<double>(bytes);
  f.anchor_time = now_;
  f.rate = 0;
  f.rate_cap = rate_cap;
  f.on_complete = std::move(on_complete);
  f.seq = ++flow_seq_;
  f.active = true;
  for (ResourceId r : f.resources) {
    Resource& res = resources_[r];
    if (res.beta > 0 && res.active > 0) ++res.degraded_joins;
    if (res.active == 0) res.busy_since = now_;
    ++res.active;
    res.peak_active = std::max(res.peak_active, res.active);
    at.push_back(static_cast<std::uint32_t>(res.flows.size()));
    res.flows.push_back(slot);
    mark_dirty(r);
  }
  ++flows_active_;
  peak_active_flows_ =
      std::max(peak_active_flows_, static_cast<std::uint32_t>(flows_active_));
  if (f.bytes_anchor <= kByteEps) update_eta(slot);  // zero-byte: due immediately
  return (static_cast<FlowId>(static_cast<std::uint32_t>(f.seq)) << 32) | slot;
}

void FlowSimulator::at(Seconds when, std::function<void(Seconds)> fn) {
  OPASS_REQUIRE(when >= now_ - kEps, "cannot schedule a timer in the past");
  timers_.push_back({std::max(when, now_), timer_seq_++, std::move(fn)});
  std::push_heap(timers_.begin(), timers_.end(), std::greater<>{});
}

std::uint32_t FlowSimulator::resource_load(ResourceId r) const {
  OPASS_REQUIRE(r < resources_.size(), "resource out of range");
  return resources_[r].active;
}

std::uint32_t FlowSimulator::resource_peak_load(ResourceId r) const {
  OPASS_REQUIRE(r < resources_.size(), "resource out of range");
  return resources_[r].peak_active;
}

std::uint64_t FlowSimulator::resource_degraded_joins(ResourceId r) const {
  OPASS_REQUIRE(r < resources_.size(), "resource out of range");
  return resources_[r].degraded_joins;
}

/// Remove path entry `i` of the flow in `slot` from its resource's flow list
/// by swap-with-last, in O(path). The entry removed is the flow's first
/// occurrence in the list, the one a linear search would find, so every list
/// keeps the order water_fill iterates. The entry moved into the hole is
/// matched by resource and position, which keeps a path that crosses one
/// resource twice exact too.
void FlowSimulator::detach(std::uint32_t slot, std::size_t i) {
  const FlowPath& path = flows_[slot].resources;
  std::uint32_t* at = positions_[slot].data();
  const ResourceId r = path[i];
  // Entries before i are gone; a later entry on the same resource may sit
  // earlier in the list, and then it is the one to remove.
  for (std::size_t j = i + 1; j < path.size(); ++j)
    if (path[j] == r && at[j] < at[i]) std::swap(at[i], at[j]);
  std::vector<std::uint32_t>& list = resources_[r].flows;
  const std::uint32_t hole = at[i];
  OPASS_CHECK(hole < list.size() && list[hole] == slot, "flow missing from its resource index");
  const auto last = static_cast<std::uint32_t>(list.size() - 1);
  const std::uint32_t moved = list[last];
  list[hole] = moved;
  list.pop_back();
  if (hole == last) return;
  const FlowPath& moved_path = flows_[moved].resources;
  std::uint32_t* moved_at = positions_[moved].data();
  for (std::size_t j = moved == slot ? i + 1 : 0; j < moved_path.size(); ++j) {
    if (moved_path[j] == r && moved_at[j] == last) {
      moved_at[j] = hole;
      return;
    }
  }
  OPASS_CHECK(false, "moved flow missing from its resource index");
}

/// Detach the flow from every resource it crosses (closing busy intervals and
/// marking them for re-leveling), drop its queued estimate (a cancelled flow
/// has one; a completing flow's was taken off the heap when it fell due),
/// release its storage, and return the slot to the free list.
void FlowSimulator::retire_slot(std::uint32_t slot) {
  Flow& f = flows_[slot];
  for (std::size_t i = 0; i < f.resources.size(); ++i) {
    const ResourceId r = f.resources[i];
    Resource& res = resources_[r];
    OPASS_CHECK(res.active > 0, "resource active count underflow");
    --res.active;
    if (res.active == 0) res.busy_time += now_ - res.busy_since;
    detach(slot, i);
    mark_dirty(r);
  }
  discard_eta(slot);
  f.active = false;
  f.rate = 0;
  f.bytes_anchor = 0;
  f.on_complete = nullptr;
  f.resources = FlowPath{};  // release any heap block on retirement
  positions_[slot] = FlowPositions{};
  std::vector<BindingInterval>().swap(f.attr);
  --flows_active_;
  free_slots_.push_back(slot);
#if defined(OPASS_SANITIZE_BUILD)
  audit_retired_slot(slot);
#endif
}

/// Exhaustive slot-reuse invariants, run on every retirement under the
/// sanitizer presets: the slot must be detached from every resource index,
/// hold no positions and no queued estimate, its per-flow storage released,
/// the free list duplicate-free, every remaining list entry must match the
/// position its flow records for it, and every queued estimate must be the
/// one its flow records. O(cluster) per retirement — far too slow for
/// benchmarking, invaluable under ASan.
void FlowSimulator::audit_retired_slot(std::uint32_t slot) const {
  const Flow& f = flows_[slot];
  const FlowPositions& at = positions_[slot];
  OPASS_CHECK(!f.active && f.resources.empty() &&
                  f.resources.capacity() == FlowPath::kInlineCapacity && at.empty() &&
                  at.capacity() == FlowPath::kInlineCapacity && !f.on_complete &&
                  f.attr.capacity() == 0 && eta_pos_[slot] == kNotQueued,
              "retired flow slot still holds state");
  for (std::uint32_t k = 0; k < etas_.size(); ++k)
    OPASS_CHECK(eta_pos_[etas_[k].slot] == k,
                "queued estimate disagrees with its flow's heap position");
  for (ResourceId r = 0; r < resources_.size(); ++r) {
    const std::vector<std::uint32_t>& list = resources_[r].flows;
    for (std::uint32_t k = 0; k < list.size(); ++k) {
      OPASS_CHECK(list[k] != slot, "retired flow slot still indexed by a resource");
      const FlowPath& path = flows_[list[k]].resources;
      const FlowPositions& pos = positions_[list[k]];
      bool recorded = false;
      for (std::size_t j = 0; j < path.size(); ++j)
        recorded = recorded || (path[j] == r && pos[j] == k);
      OPASS_CHECK(recorded, "flow list entry disagrees with its flow's position");
    }
  }
  std::size_t uses = 0;
  for (std::uint32_t s : free_slots_)
    if (s == slot) ++uses;
  OPASS_CHECK(uses == 1, "flow slot free-list entry must be unique");
}

void FlowSimulator::cancel_flow(FlowId id) {
  const std::uint32_t slot = slot_of(id);
  OPASS_REQUIRE(slot < flows_.size(), "flow id out of range");
  Flow& f = flows_[slot];
  // A stale generation tag means the handle's flow already completed or was
  // cancelled and the slot moved on — same no-op contract as before.
  if (!f.active || static_cast<std::uint32_t>(f.seq) != tag_of(id)) return;
  commit_progress(f);  // progress to date stays in bytes_served
  retire_slot(slot);
}

void FlowSimulator::recompute_rates() {
  ++rate_recomputes_;
  ++visit_stamp_;
  comp_resources_.clear();
  comp_flows_.clear();

  // Only the connected component(s) of resources whose flow membership
  // changed can see different max-min allocations — everything else keeps
  // its rates (max-min is component-decomposable, and untouched components
  // see the exact same constraint structure as before). BFS the bipartite
  // resource<->flow graph out from every dirty resource.
  for (std::uint32_t r : dirty_resources_) {
    Resource& res = resources_[r];
    res.dirty = false;
    if (res.visit == visit_stamp_) continue;
    res.visit = visit_stamp_;
    comp_resources_.push_back(r);
  }
  dirty_resources_.clear();
  for (std::size_t i = 0; i < comp_resources_.size(); ++i) {
    const Resource& res = resources_[comp_resources_[i]];
    for (std::uint32_t slot : res.flows) {
      Flow& f = flows_[slot];
      if (f.visit == visit_stamp_) continue;
      f.visit = visit_stamp_;
      comp_flows_.push_back(slot);
      for (ResourceId r2 : f.resources) {
        Resource& res2 = resources_[r2];
        if (res2.visit == visit_stamp_) continue;
        res2.visit = visit_stamp_;
        comp_resources_.push_back(r2);
      }
    }
  }
  rate_recompute_touched_ += comp_flows_.size();
  max_relevel_component_ =
      std::max(max_relevel_component_, static_cast<std::uint32_t>(comp_flows_.size()));
  if (comp_flows_.empty()) return;  // e.g. the last flow on a disk retired
  if (comp_flows_.size() == 1) {
    level_one_flow(comp_flows_.front());
  } else {
    water_fill();
  }
}

/// water_fill() on a component of one flow, without its heaps. The flow is
/// the only user of every resource on its path, so a resource crossed k
/// times has k active entries and k unfixed ones: its fair share is the
/// degraded capacity over k. The flow runs at the lowest share (ties to the
/// lowest resource id), unless its cap is strictly lower.
void FlowSimulator::level_one_flow(std::uint32_t slot) {
  const Flow& f = flows_[slot];
  double share = kInf;
  ResourceId binding = 0;
  for (ResourceId r : f.resources) {
    const Resource& res = resources_[r];
    const double k = static_cast<double>(res.active);
    const double s = res.capacity / (1.0 + res.beta * (k - 1.0)) / k;
    if (s < share || (s == share && r < binding)) {
      share = s;
      binding = r;
    }
  }
  if (f.rate_cap > 0 && f.rate_cap < share) {
    share = f.rate_cap;
    binding = kCapBinding;
  }
  OPASS_CHECK(share < kInf, "max-min allocation found no bottleneck");
  set_rate(slot, share, binding);
}

/// Water-filling with per-flow caps over the dirty components gathered in
/// comp_resources_ / comp_flows_: rates rise together until the first
/// constraint binds. Each round, the binding level is the minimum over (a)
/// each active resource's fair share and (b) each unfixed flow's own rate
/// cap; all flows pinned by the binding constraint freeze at that level and
/// release the rest of their resources' capacity. Every pin commits through
/// set_rate in binding order, naming the constraint that froze the flow (the
/// bottleneck resource, or kCapBinding when its own rate cap bound).
///
/// Both minima come from lazily invalidated min-heaps instead of per-round
/// scans, making a full re-level O(incidences * log) instead of
/// O(rounds * component). This is value-exact: a queued share is recomputed
/// (and its old entry epoch-invalidated) whenever its resource's
/// remaining/unfixed change, so a surviving entry always equals the share a
/// fresh scan would compute; ties break on ascending resource id, matching
/// the reference scan's strict-< argmin.
void FlowSimulator::water_fill() {
  share_heap_.clear();
  cap_heap_.clear();
  for (ResourceId r : comp_resources_) {
    Resource& res = resources_[r];
    // Effective capacity for this instant: disks degrade with total
    // concurrency on them (head thrash), NICs (beta = 0) do not.
    const double k = static_cast<double>(res.active);
    res.remaining = res.active == 0
                        ? res.capacity
                        : res.capacity / (1.0 + res.beta * (k - 1.0));
    res.unfixed = 0;
  }
  for (std::uint32_t slot : comp_flows_) {
    Flow& f = flows_[slot];
    for (ResourceId r : f.resources) ++resources_[r].unfixed;
    if (f.rate_cap > 0) cap_heap_.push_back({f.rate_cap, f.seq, slot});
  }
  std::make_heap(cap_heap_.begin(), cap_heap_.end(), std::greater<>{});
  for (ResourceId r : comp_resources_) {
    const Resource& res = resources_[r];
    if (res.unfixed == 0) continue;  // a dirty seed whose last flow retired
    share_heap_.push_back(
        {res.remaining / static_cast<double>(res.unfixed), r, res.wf_epoch});
  }
  std::make_heap(share_heap_.begin(), share_heap_.end(), std::greater<>{});

  // Freeze a flow's rate at the binding share and release the headroom on
  // every resource it crosses, re-queuing their updated fair shares.
  const auto pin = [&](std::uint32_t slot, double share, ResourceId binding) {
    Flow& f = flows_[slot];
    f.fixed = visit_stamp_;
    set_rate(slot, share, binding);
    for (ResourceId r : f.resources) {
      Resource& res = resources_[r];
      res.remaining = std::max(0.0, res.remaining - share);
      --res.unfixed;
      ++res.wf_epoch;
      if (res.unfixed > 0) {
        share_heap_.push_back(
            {res.remaining / static_cast<double>(res.unfixed), r, res.wf_epoch});
        std::push_heap(share_heap_.begin(), share_heap_.end(), std::greater<>{});
      }
    }
  };

  std::size_t flows_left = comp_flows_.size();
  while (flows_left > 0) {
    // Current bottleneck resource (lowest fair share, then lowest id).
    double res_share = kInf;
    ResourceId best_r = 0;
    while (!share_heap_.empty()) {
      const ShareEntry& top = share_heap_.front();
      const Resource& res = resources_[top.r];
      if (top.epoch != res.wf_epoch || res.unfixed == 0) {
        std::pop_heap(share_heap_.begin(), share_heap_.end(), std::greater<>{});
        share_heap_.pop_back();
        continue;
      }
      res_share = top.share;
      best_r = top.r;
      break;
    }
    // Tightest per-flow cap still unfixed.
    double cap_min = kInf;
    while (!cap_heap_.empty()) {
      const CapEntry& top = cap_heap_.front();
      if (flows_[top.slot].fixed == visit_stamp_) {
        std::pop_heap(cap_heap_.begin(), cap_heap_.end(), std::greater<>{});
        cap_heap_.pop_back();
        continue;
      }
      cap_min = top.cap;
      break;
    }

    const bool cap_binds = cap_min < res_share;
    const double best_share = cap_binds ? cap_min : res_share;
    OPASS_CHECK(best_share < kInf, "max-min allocation found no bottleneck");

    const std::size_t before = flows_left;
    if (cap_binds) {
      // Freeze every unfixed capped flow at or below the binding level.
      while (!cap_heap_.empty()) {
        const CapEntry top = cap_heap_.front();
        if (flows_[top.slot].fixed != visit_stamp_ && top.cap > best_share) break;
        std::pop_heap(cap_heap_.begin(), cap_heap_.end(), std::greater<>{});
        cap_heap_.pop_back();
        if (flows_[top.slot].fixed == visit_stamp_) continue;
        pin(top.slot, best_share, kCapBinding);
        --flows_left;
      }
    } else {
      // Freeze every unfixed flow crossing the bottleneck resource.
      for (std::uint32_t slot : resources_[best_r].flows) {
        if (flows_[slot].fixed == visit_stamp_) continue;
        pin(slot, best_share, best_r);
        --flows_left;
      }
    }
    OPASS_CHECK(flows_left < before, "water-filling made no progress");
  }
}

void FlowSimulator::advance_to(Seconds t) {
  OPASS_CHECK(t - now_ >= -kEps, "time must not move backwards");
  now_ = std::max(now_, t);
}

Seconds FlowSimulator::resource_busy_time(ResourceId r) const {
  OPASS_REQUIRE(r < resources_.size(), "resource out of range");
  const Resource& res = resources_[r];
  // Closed intervals plus the still-open one, if the resource is busy now.
  return res.active > 0 ? res.busy_time + (now_ - res.busy_since) : res.busy_time;
}

double FlowSimulator::resource_bytes_served(ResourceId r) const {
  OPASS_REQUIRE(r < resources_.size(), "resource out of range");
  const Resource& res = resources_[r];
  // Committed totals plus each crossing flow's uncommitted open interval.
  double total = res.bytes_served;
  for (std::uint32_t slot : res.flows) {
    const Flow& f = flows_[slot];
    if (f.rate > 0 && now_ > f.anchor_time) total += f.rate * (now_ - f.anchor_time);
  }
  return total;
}

Seconds FlowSimulator::run_until(const bool& done) {
  for (;;) {
    // Last step's completion attributions expire: completed_attribution() is
    // a within-callback accessor, not a history store.
    if (!finished_attr_.empty()) finished_attr_.clear();

    if (!dirty_resources_.empty()) recompute_rates();
    if (done) break;

    const double next_completion = etas_.empty() ? kInf : etas_.front().when;
    const double next_timer = timers_.empty() ? kInf : timers_.front().when;
    const double t = std::min(next_completion, next_timer);
    if (t == kInf) break;  // idle: no runnable flows, no timers
    advance_to(t);

    // Fire all timers due at (or before, FP-wise) the new now.
    while (!timers_.empty() && timers_.front().when <= now_ + kEps) {
      std::pop_heap(timers_.begin(), timers_.end(), std::greater<>{});
      Timer timer = std::move(timers_.back());
      timers_.pop_back();
      timer.fn(now_);
    }

    // Collect finished flows. The heap is a hint, not an authority: each due
    // entry is re-checked against the flow's exact remaining bytes, and
    // not-quite-done flows (their ETA was a hair optimistic, or a timer event
    // landed just before it) are re-queued with a fresh estimate. Requeues
    // are staged so each entry is examined at most once per event.
    completed_.clear();
    requeued_.clear();
    while (!etas_.empty() && etas_.front().when <= now_ + kEps) {
      const std::uint32_t slot = etas_.front().slot;
      drop_eta(0);
      const Flow& f = flows_[slot];
      const double left = bytes_left_at(f, now_);
      if (left <= kByteEps) {
        completed_.push_back(slot);
      } else {
        OPASS_CHECK(f.rate > 0, "completion queued for a stalled flow");
        requeued_.push_back({now_ + left / f.rate, f.seq, slot});
      }
    }
    for (const Eta& e : requeued_) queue_eta(e);

    // Retire completions in creation order (matching the reference engine's
    // flow-index scan), then fire callbacks — they commonly start the
    // process's next read, so collect first.
    std::sort(completed_.begin(), completed_.end(),
              [this](std::uint32_t a, std::uint32_t b) { return flows_[a].seq < flows_[b].seq; });
    callbacks_.clear();
    for (std::uint32_t slot : completed_) {
      Flow& f = flows_[slot];
      // Commit the whole remainder since the anchor: every byte of the flow
      // lands in bytes_served exactly once (telescoping, no per-event drift).
      if (f.bytes_anchor > 0)
        for (ResourceId r : f.resources) resources_[r].bytes_served += f.bytes_anchor;
      if (record_attr_) stash_attribution(slot);
      if (f.on_complete) callbacks_.push_back(std::move(f.on_complete));
      retire_slot(slot);
    }
    for (auto& cb : callbacks_) cb(now_);
  }
  return now_;
}

}  // namespace opass::sim
