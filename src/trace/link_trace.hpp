#ifndef SICMAC_TRACE_LINK_TRACE_HPP
#define SICMAC_TRACE_LINK_TRACE_HPP

/// \file link_trace.hpp
/// The Section 7 download-measurement campaign: "5 Soekris boxes co-located
/// with existing APs ... 100 locations in adjacent classrooms and offices
/// as client locations. For each client we recorded the SNR from all the
/// 5 APs." This module generates the synthetic equivalent — a dense
/// (AP × client-location) SNR matrix from a floor-plan model — and exposes
/// the derived measurements the paper uses: the best clean 802.11g bitrate
/// per link and the best bitrate under interference from another AP.

#include <cstdint>
#include <vector>

#include "channel/two_link_rss.hpp"
#include "phy/rate_table.hpp"
#include "util/units.hpp"

namespace sic::trace {

struct LinkTraceConfig {
  static constexpr int n_aps = 5;
  static constexpr int n_client_locations = 100;
  static constexpr double ap_spacing_m = 35.0;  ///< APs along a corridor
  /// Client offset range from the corridor.
  static constexpr double room_depth_m = 12.0;
  /// Corridor-and-classroom propagation. The defaults put most serving
  /// links in the 20-45 dB SNR band the paper's campaign implies (every
  /// location sustains a measurable 802.11g rate from at least one AP),
  /// which is where the discrete-vs-Shannon contrast of Fig. 14 lives:
  /// saturated discrete rates shrug off moderate interference while the
  /// ideal rate degrades smoothly.
  static constexpr double pathloss_exponent = 3.0;
  Decibels shadowing_sigma{5.0};
  static constexpr Dbm ap_tx_power{26.0};  ///< EIRP incl. antenna gain
  static constexpr Dbm noise_floor{-94.0};
};

/// A dense matrix of per-(AP, location) clean SNRs.
class LinkTrace {
 public:
  LinkTrace(int n_aps, int n_locations);

  [[nodiscard]] int n_aps() const { return n_aps_; }
  [[nodiscard]] int n_locations() const { return n_locations_; }

  [[nodiscard]] Decibels snr(int ap, int location) const;
  void set_snr(int ap, int location, Decibels snr);

  /// Best clean 802.11g bitrate for the link (the paper's "highest 802.11g
  /// bitrate at which 90% of packets are received successfully").
  [[nodiscard]] BitsPerSecond clean_rate(int ap, int location,
                                         const phy::RateTable& table) const;

  /// Best bitrate from \p ap at \p location while \p interferer transmits
  /// concurrently (the carrier-sense-off experiment): the table rate at the
  /// resulting SINR.
  [[nodiscard]] BitsPerSecond rate_under_interference(
      int ap, int interferer, int location, const phy::RateTable& table) const;

  /// Builds the 2×2 RSS matrix for the pair of AP→client links
  /// (ap1 → loc1) and (ap2 → loc2) with unit-normalized noise.
  [[nodiscard]] channel::TwoLinkRss two_link_rss(int ap1, int loc1, int ap2,
                                                 int loc2) const;

 private:
  int n_aps_;
  int n_locations_;
  std::vector<Decibels> snr_;
};

/// Generates the synthetic measurement campaign.
[[nodiscard]] LinkTrace generate_link_trace(const LinkTraceConfig& config,
                                            std::uint64_t seed);

}  // namespace sic::trace

#endif  // SICMAC_TRACE_LINK_TRACE_HPP
