// Failure injection end to end: a storage node crashes mid-job, scripted
// through sim::FaultPlan (DESIGN.md §11).
//
// The runtime reacts three times: readers retry aborted reads on surviving
// replicas immediately (client-side failover), the heartbeat monitor
// declares the node dead after the miss window, and the fault injector
// re-replicates the victim's blocks as real traffic that competes with the
// job's remaining reads (metadata-side recovery). The job completes either
// way; the question is what the crash costs — and whether Opass's locality
// advantage survives losing a node.
#include <cstdio>

#include "common/table.hpp"
#include "exp/experiment.hpp"
#include "obs/fault_log.hpp"
#include "opass/opass.hpp"

namespace {

using namespace opass;

struct Outcome {
  Seconds makespan = 0;
  double avg_io = 0;
  std::uint32_t retries = 0;
  bool detected = false;
  Seconds detection = 0;
  sim::FaultStats stats;
};

Outcome run_once(bool use_opass, bool inject_failure) {
  exp::ExperimentConfig cfg;
  cfg.nodes = 64;
  cfg.seed = 42;

  sim::FaultPlan plan;
  sim::FaultEvent crash;
  crash.at = 3.0;
  crash.kind = sim::FaultKind::kCrash;
  crash.node = 17;
  plan.events.push_back(crash);

  sim::FaultStats stats;
  obs::FaultEventLog log(plan);
  runtime::ExecutionResult raw;
  cfg.raw = &raw;
  if (inject_failure) {
    cfg.faults = &plan;
    cfg.fault_probe = &log;
    cfg.fault_stats = &stats;
  }

  const auto out = exp::run_single_data(cfg, 640,
                                        use_opass ? exp::Method::kOpass
                                                  : exp::Method::kBaseline);

  Outcome o;
  o.makespan = out.makespan;
  o.avg_io = out.io.mean;
  o.retries = raw.read_failures;
  o.stats = stats;
  for (const auto& entry : log.entries()) {
    if (entry.label.rfind("detected", 0) == 0) {
      o.detected = true;
      o.detection = entry.at;
      break;
    }
  }
  return o;
}

}  // namespace

int main() {
  std::printf("Node failure at t=3s during a 64-node, 640-chunk job (r=3, heartbeat\n"
              "interval 3 s, 3 misses to declare)\n\n");
  Table t({"assignment", "failure", "avg I/O (s)", "makespan (s)", "read retries",
           "detected at (s)", "recovered MiB"});
  for (const bool use_opass : {false, true}) {
    for (const bool failure : {false, true}) {
      const auto o = run_once(use_opass, failure);
      t.add_row({use_opass ? "opass" : "baseline", failure ? "node-17 crash" : "none",
                 Table::num(o.avg_io, 2), Table::num(o.makespan, 1),
                 Table::integer(o.retries),
                 o.detected ? Table::num(o.detection, 1) : "-",
                 failure ? Table::num(to_mib(o.stats.rereplicated_bytes), 0) : "-"});
    }
  }
  std::fputs(t.render().c_str(), stdout);
  std::printf("\nEvery task completes despite the crash: aborted reads fail over to the\n"
              "surviving replicas, and the injector re-replicates the victim's blocks\n"
              "(~12 s after the crash) as traffic that shares disks and NICs with the\n"
              "job. Opass loses the victim's local work but keeps its advantage —\n"
              "only the ~1/64th of tasks pinned there go remote.\n");
  return 0;
}
