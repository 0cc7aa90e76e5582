#ifndef SICMAC_MAC_PHY_PARAMS_HPP
#define SICMAC_MAC_PHY_PARAMS_HPP

/// \file phy_params.hpp
/// 802.11 (OFDM / ERP) MAC-PHY timing parameters used by the DCF model.
/// Every value is a fixed 802.11 constant.

#include "mac/sim_time.hpp"
#include "util/units.hpp"

namespace sic::mac {

struct PhyParams {
  static constexpr SimTime slot = from_micros(9.0);
  static constexpr SimTime sifs = from_micros(16.0);
  static constexpr SimTime difs = from_micros(34.0);  ///< SIFS + 2*slot
  static constexpr SimTime preamble = from_micros(20.0);
  static constexpr int cw_min = 15;
  static constexpr int cw_max = 1023;
  static constexpr int max_retries = 7;
  static constexpr double ack_bits = 112.0;      ///< 14-byte ACK
  static constexpr BitsPerSecond ack_rate{6e6};  ///< control rate
  /// Carrier-sense threshold, relative to the noise floor: a foreign
  /// transmission arriving at least this far above noise marks the medium
  /// busy (preamble detection sits ~12 dB over a −94 dBm floor).
  static constexpr Decibels cs_above_noise{12.0};

  static constexpr double rts_bits = 160.0;  ///< 20-byte RTS
  static constexpr double cts_bits = 112.0;  ///< 14-byte CTS

  /// Air time of \p bits at \p rate: the preamble plus the payload.
  [[nodiscard]] static SimTime airtime(double bits, BitsPerSecond rate) {
    return preamble + from_seconds(bits / rate.value());
  }
  [[nodiscard]] SimTime ack_duration() const {
    return airtime(ack_bits, ack_rate);
  }
  [[nodiscard]] SimTime cts_duration() const {
    return airtime(cts_bits, ack_rate);
  }
};

}  // namespace sic::mac

#endif  // SICMAC_MAC_PHY_PARAMS_HPP
