#ifndef SICMAC_TRACE_GENERATOR_HPP
#define SICMAC_TRACE_GENERATOR_HPP

/// \file generator.hpp
/// Synthetic building-trace generator standing in for the paper's two-week
/// Duke RSSI traces (DESIGN.md, substitution 1). The model:
///
///  - APs on a grid across a rectangular floor.
///  - A fixed population of clients, each with a "home" location; per
///    snapshot a client is present with a duty-cycle probability, jitters
///    around home (people move), and associates with the strongest AP.
///  - RSSI at the AP = tx power − log-distance path loss + log-normal
///    shadowing, re-drawn per snapshot (temporal fading).
///
/// The statistic that drives Fig. 13 — the distribution of pairwise RSS
/// disparities among clients backlogged at the same AP — is shaped by the
/// same geometry + shadowing process as the real trace.

#include <cstdint>

#include "trace/snapshot.hpp"
#include "util/units.hpp"

namespace sic::trace {

struct BuildingConfig {
  static constexpr int ap_grid_x = 3;  ///< APs per row
  static constexpr int ap_grid_y = 2;  ///< AP rows
  static constexpr double ap_spacing_m = 30.0;
  /// Clients may roam this far past the outermost APs.
  static constexpr double floor_margin_m = 10.0;
  static constexpr int client_population = 40;
  double presence_probability = 0.6;
  static constexpr double roam_radius_m = 8.0;  ///< per-snapshot jitter
  static constexpr double pathloss_exponent = 3.5;
  Decibels shadowing_sigma{6.0};
  static constexpr Dbm client_tx_power{18.0};
  static constexpr Dbm association_floor{-85.0};  ///< weaker: not heard

  static constexpr int snapshot_period_s = 900;  ///< 15 min, as in the paper
  int duration_s = 14 * 24 * 3600;  ///< two weeks, as in the paper

  /// Office-building diurnal load: when true, the presence probability is
  /// modulated by hour-of-day and day-of-week (busy 9-18h on weekdays,
  /// nearly empty nights and weekends) — the occupancy pattern a "busy
  /// building in Duke University" trace exhibits. When false, presence is
  /// stationary at presence_probability.
  bool diurnal = true;
};

/// The presence multiplier the generator applies at a given trace time
/// (exposed for tests): 1.0 at the weekday peak, ~0.05 at night, ~0.25 on
/// weekend days. The trace starts on a Monday at midnight.
[[nodiscard]] double diurnal_presence_factor(int timestamp_s);

/// Generates the full trace for the given building and seed.
[[nodiscard]] RssiTrace generate_building_trace(const BuildingConfig& config,
                                                std::uint64_t seed);

}  // namespace sic::trace

#endif  // SICMAC_TRACE_GENERATOR_HPP
