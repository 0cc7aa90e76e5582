#ifndef SICMAC_SICMAC_HPP
#define SICMAC_SICMAC_HPP

/// \file sicmac.hpp
/// Umbrella header: the full public API of the sicmac library. Individual
/// headers are preferred in library code; this is the convenient include
/// for applications and exploratory tools.
///
/// Layering (each layer only depends on those above it):
///   util      — units, RNG, checks
///   phy       — capacity math (eqs 1-4), rate tables/adapters, SIC decoder
///   channel   — noise, path loss, shadowing, link budgets
///   topology  — geometry, samplers, named deployments
///   matching  — weighted blossom / oracle / greedy matchers
///   core      — the paper: completion-time algebra, techniques, scheduler
///   mac       — discrete-event CSMA/CA + scheduled-upload simulator
///   trace     — synthetic building & link-measurement traces, CSV I/O
///   analysis  — statistics, Monte Carlo engines, trace evaluations

#include "util/check.hpp"       // IWYU pragma: export
#include "util/mathx.hpp"       // IWYU pragma: export
#include "util/rng.hpp"         // IWYU pragma: export
#include "util/units.hpp"       // IWYU pragma: export

#include "phy/capacity.hpp"         // IWYU pragma: export
#include "phy/capacity_region.hpp"  // IWYU pragma: export
#include "phy/error_model.hpp"      // IWYU pragma: export
#include "phy/rate_adapter.hpp"     // IWYU pragma: export
#include "phy/rate_table.hpp"       // IWYU pragma: export
#include "phy/sic_decoder.hpp"      // IWYU pragma: export

#include "channel/fading.hpp"        // IWYU pragma: export
#include "channel/link.hpp"          // IWYU pragma: export
#include "channel/pathloss.hpp"      // IWYU pragma: export
#include "channel/shadowing.hpp"     // IWYU pragma: export
#include "channel/two_link_rss.hpp"  // IWYU pragma: export

#include "topology/geometry.hpp"   // IWYU pragma: export
#include "topology/node.hpp"       // IWYU pragma: export
#include "topology/samplers.hpp"   // IWYU pragma: export
#include "topology/scenarios.hpp"  // IWYU pragma: export

#include "matching/blossom.hpp"  // IWYU pragma: export
#include "matching/graph.hpp"    // IWYU pragma: export
#include "matching/greedy.hpp"   // IWYU pragma: export
#include "matching/oracle.hpp"   // IWYU pragma: export

#include "core/backlog.hpp"         // IWYU pragma: export
#include "core/cross_link.hpp"      // IWYU pragma: export
#include "core/download.hpp"        // IWYU pragma: export
#include "core/enterprise.hpp"      // IWYU pragma: export
#include "core/mesh.hpp"            // IWYU pragma: export
#include "core/multirate.hpp"       // IWYU pragma: export
#include "core/packing.hpp"         // IWYU pragma: export
#include "core/power_control.hpp"   // IWYU pragma: export
#include "core/scheduler.hpp"       // IWYU pragma: export
#include "core/upload_pair.hpp"     // IWYU pragma: export
#include "core/wlan_scenarios.hpp"  // IWYU pragma: export

#include "mac/access_point.hpp"        // IWYU pragma: export
#include "mac/chaos.hpp"               // IWYU pragma: export
#include "mac/deployment_engine.hpp"   // IWYU pragma: export
#include "mac/event_queue.hpp"   // IWYU pragma: export
#include "mac/medium.hpp"        // IWYU pragma: export
#include "mac/station.hpp"       // IWYU pragma: export
#include "mac/upload_sim.hpp"    // IWYU pragma: export

#include "trace/generator.hpp"   // IWYU pragma: export
#include "trace/io.hpp"          // IWYU pragma: export
#include "trace/link_trace.hpp"  // IWYU pragma: export
#include "trace/snapshot.hpp"    // IWYU pragma: export

#include "analysis/grid.hpp"        // IWYU pragma: export
#include "analysis/montecarlo.hpp"  // IWYU pragma: export
#include "analysis/stats.hpp"       // IWYU pragma: export
#include "analysis/trace_eval.hpp"  // IWYU pragma: export

#endif  // SICMAC_SICMAC_HPP
