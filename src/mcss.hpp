// Umbrella header: the entire mcss library.
//
// Fine-grained headers remain available (and are what the library itself
// uses); this is the convenience include for applications.
#pragma once

#include "core/channel.hpp"          // IWYU pragma: export
#include "core/lp_schedule.hpp"      // IWYU pragma: export
#include "core/optimal.hpp"          // IWYU pragma: export
#include "core/planner.hpp"          // IWYU pragma: export
#include "core/rate.hpp"             // IWYU pragma: export
#include "core/schedule.hpp"         // IWYU pragma: export
#include "core/subset_metrics.hpp"   // IWYU pragma: export
#include "crypto/siphash.hpp"        // IWYU pragma: export
#include "feedback/arq.hpp"          // IWYU pragma: export
#include "feedback/redundancy.hpp"   // IWYU pragma: export
#include "feedback/report.hpp"       // IWYU pragma: export
#include "feedback/report_builder.hpp" // IWYU pragma: export
#include "feedback/retransmit.hpp"   // IWYU pragma: export
#include "field/gf256.hpp"           // IWYU pragma: export
#include "lp/simplex.hpp"            // IWYU pragma: export
#include "net/cpu_model.hpp"         // IWYU pragma: export
#include "net/link_model.hpp"        // IWYU pragma: export
#include "net/outage.hpp"            // IWYU pragma: export
#include "net/sim_channel.hpp"       // IWYU pragma: export
#include "net/sim_time.hpp"          // IWYU pragma: export
#include "net/simulator.hpp"         // IWYU pragma: export
#include "protocol/dither.hpp"       // IWYU pragma: export
#include "protocol/receiver.hpp"     // IWYU pragma: export
#include "protocol/scheduler.hpp"    // IWYU pragma: export
#include "protocol/sender.hpp"       // IWYU pragma: export
#include "protocol/wire.hpp"         // IWYU pragma: export
#include "runtime/parallel.hpp"      // IWYU pragma: export
#include "runtime/thread_pool.hpp"   // IWYU pragma: export
#include "sss/shamir.hpp"            // IWYU pragma: export
#include "util/backoff.hpp"          // IWYU pragma: export
#include "util/ensure.hpp"           // IWYU pragma: export
#include "util/poisson_binomial.hpp" // IWYU pragma: export
#include "util/rng.hpp"              // IWYU pragma: export
#include "util/stats.hpp"            // IWYU pragma: export
#include "util/subset.hpp"           // IWYU pragma: export
#include "workload/experiment.hpp"   // IWYU pragma: export
#include "workload/experiment_log.hpp" // IWYU pragma: export
#include "workload/scenario.hpp"     // IWYU pragma: export
#include "workload/setups.hpp"       // IWYU pragma: export
#include "workload/traffic.hpp"      // IWYU pragma: export
