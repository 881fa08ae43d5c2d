// The planning API: core::plan() runs one of the Opass matchers
// (single-data flow, byte-weighted flow, rack-aware two-phase flow,
// multi-data stable matching) on one request, with one options struct
// (options-last, defaulted), and returns one result carrying the
// assignment, uniform AssignmentStats and the planner-specific counters.
//
// plan() is the only planning entry point. The matchers behind it are
// src/opass/ internals (opass/matchers.hpp); the facade-only lint rule keeps
// every other caller, tests included, on plan().
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "dfs/namenode.hpp"
#include "graph/max_flow.hpp"
#include "opass/assignment_stats.hpp"
#include "opass/process_index.hpp"
#include "runtime/static_partitioner.hpp"
#include "runtime/task.hpp"

namespace opass::core {

/// Which matcher plan() dispatches to.
enum class PlannerKind {
  kSingleData,    ///< Fig. 5 unit-capacity max-flow + random fill
  kWeighted,      ///< Fig. 5 with byte capacities + balance fill
  kRackAware,     ///< two-phase (node-local, rack-local) flow + random fill
  kMultiData,     ///< Algorithm 1 stable-marriage greedy
};

/// Canonical name ("single-data", "weighted", "rack-aware", "multi-data").
const char* planner_kind_name(PlannerKind kind);

/// Everything a planner needs to run. The referenced objects must outlive
/// the plan() call; nothing is copied.
struct PlanRequest {
  const dfs::NameNode* nn = nullptr;
  const std::vector<runtime::Task>* tasks = nullptr;
  const ProcessPlacement* placement = nullptr;
  /// Required by the flow planners for their random-fill phase; kMultiData
  /// is deterministic and ignores it.
  Rng* rng = nullptr;
};

/// Knobs shared by every planner (options-last on every entry point).
struct PlanOptions {
  PlannerKind planner = PlannerKind::kSingleData;
  /// Optional reusable network + solver arenas for the flow-based planners:
  /// repeated planning allocates nothing once the arenas are warm.
  graph::FlowWorkspace* workspace = nullptr;
};

/// Uniform result: the assignment, its locality/balance profile, and the
/// planner-specific counters (fields not produced by the chosen planner
/// stay zero).
struct [[nodiscard]] PlanResult {
  PlannerKind planner = PlannerKind::kSingleData;
  runtime::Assignment assignment;
  AssignmentStats stats;

  // Flow planners (kSingleData, kWeighted, kRackAware).
  std::uint32_t locally_matched = 0;  ///< tasks matched by the (node-local) max-flow
  std::uint32_t randomly_filled = 0;  ///< tasks placed by the fill pass
  std::uint32_t rack_local = 0;       ///< kRackAware: phase-2 matches

  std::uint32_t reassignments = 0;  ///< kMultiData: Algorithm 1 steal-backs
  /// kWeighted, kMultiData: co-located bytes of the final matching.
  Bytes matched_bytes = 0;

  // Host wall-clock timings of the facade's two phases, measured with
  // steady_clock. These are NOT deterministic across runs or machines —
  // observability sinks must tag them as such (obs collectors register them
  // nondeterministic, so deterministic exports exclude them by default).
  double plan_wall_ms = 0;   ///< matcher dispatch (graph build + solve + fill)
  double stats_wall_ms = 0;  ///< evaluate_assignment() profiling pass

  double local_fraction() const { return stats.local_fraction(); }
};

/// Run the planner selected by `options.planner` and package the result.
PlanResult plan(const PlanRequest& request, PlanOptions options = {});

// --- session-based planning service types -----------------------------------
//
// The one-shot plan() facade answers a single offline request; the
// session-based PlannerService (opass/service.hpp) answers a stream of job
// arrivals over a shared cluster. The service's wire types live here so the
// whole public planning API — one-shot and session — reads from one header.

/// Service-issued job handle (monotone from 1; 0 is never issued).
using JobId = std::uint64_t;

/// Tenant namespace for fair-share accounting; dense small ids expected.
using TenantId = std::uint32_t;

inline constexpr JobId kInvalidJob = 0;

/// Lifecycle of a submitted job.
enum class JobState : std::uint8_t {
  kQueued,     ///< admitted, waiting for its batch
  kPlanned,    ///< assigned; occupies process capacity until complete/cancel
  kCompleted,  ///< finished executing; capacity released, usage stays charged
  kCancelled,  ///< withdrawn (queued: never planned; planned: capacity freed)
};

/// Canonical name ("queued", "planned", "completed", "cancelled").
const char* job_state_name(JobState state);

/// One job of a planning session: a set of single-input tasks arriving at a
/// virtual time on behalf of a tenant. The service copies the request, so
/// the caller keeps no obligations after submit().
struct JobRequest {
  /// Single-input tasks (ids are the caller's; returned verbatim in the
  /// job's assignment). Multi-input tasks are rejected at submit.
  std::vector<runtime::Task> tasks;
  TenantId tenant = 0;
  /// Fair-share weight of the tenant; fixed by the tenant's first job.
  double weight = 1.0;
  /// Virtual arrival time; must be >= the service's current time.
  Seconds arrival = 0;
};

/// Everything the service knows about one job. Snapshot semantics: the
/// assignment and counters are filled when the job's batch is planned.
struct JobStatus {
  JobId id = kInvalidJob;
  JobState state = JobState::kQueued;
  TenantId tenant = 0;
  Seconds arrival = 0;
  Seconds planned_at = 0;             ///< batch cut time (valid once planned)
  std::uint32_t batch = 0;            ///< 1-based batch sequence number
  std::uint32_t locally_matched = 0;  ///< tasks placed by the flow phases
  std::uint32_t randomly_filled = 0;  ///< tasks placed by the fill pass
  Bytes local_bytes = 0;              ///< co-located bytes of the assignment
  Bytes total_bytes = 0;              ///< input bytes of the job's tasks
  /// Per-process lists of the job's task ids (caller ids, empty until
  /// planned; process count = the service placement's size).
  runtime::Assignment assignment;

  double local_fraction() const {
    return total_bytes ? static_cast<double>(local_bytes) / static_cast<double>(total_bytes)
                       : 0.0;
  }
};

/// Service-wide knobs (constructor-only; options-last like PlanOptions).
struct ServiceOptions {
  /// Seed of the service's private Rng (random-fill phase). Same trace +
  /// same seed => byte-identical assignments (the determinism contract).
  std::uint64_t seed = 0;
  /// Coalescing window: jobs arriving within `batch_window` of a batch head
  /// merge into the head's flow solve (0 = only exact co-arrivals).
  Seconds batch_window = 0;
  /// When false, the per-tenant fair-share phase is skipped and batches get
  /// plain maximum locality (single flow solve).
  bool fair_share = true;
};

}  // namespace opass::core
