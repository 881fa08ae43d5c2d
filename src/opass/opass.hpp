// Umbrella header for the Opass core library.
//
// Typical use:
//
//   auto placement = opass::core::one_process_per_node(nn);
//   auto plan = opass::core::plan({&nn, &tasks, &placement, &rng});
//   opass::runtime::StaticAssignmentSource source(plan.assignment);
//   auto result = opass::runtime::execute(cluster, nn, tasks, source, rng);
//
// See examples/quickstart.cpp for a complete program.
#pragma once

#include "opass/admission.hpp"
#include "opass/assignment_stats.hpp"
#include "opass/dynamic_scheduler.hpp"
#include "opass/incremental.hpp"
#include "opass/plan_audit.hpp"
#include "opass/plan_io.hpp"
#include "opass/planner.hpp"
#include "opass/process_index.hpp"
#include "opass/service.hpp"
