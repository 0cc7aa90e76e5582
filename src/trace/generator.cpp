#include "trace/generator.hpp"

#include <cmath>
#include <vector>

#include "channel/pathloss.hpp"
#include "channel/shadowing.hpp"
#include "topology/geometry.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace sic::trace {

double diurnal_presence_factor(int timestamp_s) {
  const int day = (timestamp_s / 86400) % 7;     // 0 = Monday
  const int hour = (timestamp_s / 3600) % 24;
  const bool weekend = day >= 5;
  // Smooth daytime bump peaking at 13h, floor at night.
  const double phase = (hour - 13.0) / 4.5;
  const double bump = std::exp(-0.5 * phase * phase);
  const double daytime = 0.05 + 0.95 * bump;
  return weekend ? 0.05 + 0.20 * bump : daytime;
}

RssiTrace generate_building_trace(const BuildingConfig& config,
                                  std::uint64_t seed) {
  SIC_CHECK(config.duration_s > 0);
  Rng rng{seed};

  // AP grid.
  std::vector<topology::Point> aps;
  for (int gy = 0; gy < config.ap_grid_y; ++gy) {
    for (int gx = 0; gx < config.ap_grid_x; ++gx) {
      aps.push_back(topology::Point{gx * config.ap_spacing_m,
                                    gy * config.ap_spacing_m});
    }
  }
  const double x_max = (config.ap_grid_x - 1) * config.ap_spacing_m;
  const double y_max = (config.ap_grid_y - 1) * config.ap_spacing_m;

  // Client homes.
  std::vector<topology::Point> homes;
  homes.reserve(static_cast<std::size_t>(config.client_population));
  for (int c = 0; c < config.client_population; ++c) {
    homes.push_back(topology::random_in_rect(
        rng, -config.floor_margin_m, -config.floor_margin_m,
        x_max + config.floor_margin_m, y_max + config.floor_margin_m));
  }

  const auto pathloss = channel::LogDistancePathLoss::for_carrier(
      config.pathloss_exponent);
  const channel::LogNormalShadowing shadowing{config.shadowing_sigma};
  const Dbm tx_power = config.client_tx_power;

  RssiTrace trace;
  for (int ts = 0; ts < config.duration_s; ts += config.snapshot_period_s) {
    Snapshot snap;
    snap.timestamp_s = ts;
    snap.aps.resize(aps.size());
    for (std::size_t a = 0; a < aps.size(); ++a) {
      snap.aps[a].ap_id = static_cast<std::uint32_t>(a);
    }
    const double presence =
        config.presence_probability *
        (config.diurnal ? diurnal_presence_factor(ts) : 1.0);
    for (int c = 0; c < config.client_population; ++c) {
      if (!rng.chance(presence)) continue;
      const topology::Point pos = topology::random_in_disc(
          rng, homes[static_cast<std::size_t>(c)], config.roam_radius_m);
      // RSSI at every AP; associate with the strongest.
      int best_ap = -1;
      double best_rssi = -1e9;
      for (std::size_t a = 0; a < aps.size(); ++a) {
        const double d = topology::distance(pos, aps[a]);
        const Dbm rssi =
            pathloss.received_power(tx_power, d) + shadowing.sample(rng);
        if (rssi.value() > best_rssi) {
          best_rssi = rssi.value();
          best_ap = static_cast<int>(a);
        }
      }
      if (best_ap >= 0 && best_rssi >= config.association_floor.value()) {
        snap.aps[static_cast<std::size_t>(best_ap)].clients.push_back(
            ClientObservation{static_cast<std::uint32_t>(c), Dbm{best_rssi}});
      }
    }
    trace.snapshots.push_back(std::move(snap));
  }
  return trace;
}

}  // namespace sic::trace
