#include "trace/link_trace.hpp"

#include "channel/pathloss.hpp"
#include "channel/shadowing.hpp"
#include "topology/geometry.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace sic::trace {

LinkTrace::LinkTrace(int n_aps, int n_locations)
    : n_aps_(n_aps),
      n_locations_(n_locations),
      snr_(static_cast<std::size_t>(n_aps) * n_locations, Decibels{0.0}) {
  SIC_CHECK(n_aps >= 1 && n_locations >= 1);
}

Decibels LinkTrace::snr(int ap, int location) const {
  SIC_DCHECK(ap >= 0 && ap < n_aps_ && location >= 0 &&
             location < n_locations_);
  return snr_[static_cast<std::size_t>(ap) * n_locations_ + location];
}

void LinkTrace::set_snr(int ap, int location, Decibels snr) {
  SIC_DCHECK(ap >= 0 && ap < n_aps_ && location >= 0 &&
             location < n_locations_);
  snr_[static_cast<std::size_t>(ap) * n_locations_ + location] = snr;
}

BitsPerSecond LinkTrace::clean_rate(int ap, int location,
                                    const phy::RateTable& table) const {
  return table.best_rate(snr(ap, location));
}

BitsPerSecond LinkTrace::rate_under_interference(
    int ap, int interferer, int location, const phy::RateTable& table) const {
  SIC_CHECK(ap != interferer);
  // SINR in linear domain: S / (I + 1) with unit-normalized noise.
  const double s = snr(ap, location).linear();
  const double i = snr(interferer, location).linear();
  const double sinr = s / (i + 1.0);
  if (sinr <= 0.0) return BitsPerSecond{0.0};
  return table.best_rate(Decibels::from_linear(sinr));
}

channel::TwoLinkRss LinkTrace::two_link_rss(int ap1, int loc1, int ap2,
                                            int loc2) const {
  SIC_CHECK(ap1 != ap2 && loc1 != loc2);
  channel::TwoLinkRss rss;
  rss.s11 = Milliwatts{snr(ap1, loc1).linear()};
  rss.s12 = Milliwatts{snr(ap2, loc1).linear()};
  rss.s21 = Milliwatts{snr(ap1, loc2).linear()};
  rss.s22 = Milliwatts{snr(ap2, loc2).linear()};
  rss.noise = Milliwatts{1.0};
  return rss;
}

LinkTrace generate_link_trace(const LinkTraceConfig& config,
                              std::uint64_t seed) {
  Rng rng{seed};
  LinkTrace trace{config.n_aps, config.n_client_locations};

  // APs along a corridor at y = 0; client locations in rooms on both sides.
  std::vector<topology::Point> aps;
  for (int a = 0; a < config.n_aps; ++a) {
    aps.push_back(topology::Point{a * config.ap_spacing_m, 0.0});
  }
  const double x_max = (config.n_aps - 1) * config.ap_spacing_m;

  const auto pathloss =
      channel::LogDistancePathLoss::for_carrier(config.pathloss_exponent);
  const channel::LogNormalShadowing shadowing{config.shadowing_sigma};
  const Dbm tx = config.ap_tx_power;
  const Dbm noise = config.noise_floor;

  for (int loc = 0; loc < config.n_client_locations; ++loc) {
    const topology::Point p = topology::random_in_rect(
        rng, -5.0, -config.room_depth_m, x_max + 5.0, config.room_depth_m);
    for (int a = 0; a < config.n_aps; ++a) {
      const double d = topology::distance(p, aps[static_cast<std::size_t>(a)]);
      const Dbm rssi = pathloss.received_power(tx, d) + shadowing.sample(rng);
      trace.set_snr(a, loc, rssi - noise);
    }
  }
  return trace;
}

}  // namespace sic::trace
