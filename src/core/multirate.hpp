#ifndef SICMAC_CORE_MULTIRATE_HPP
#define SICMAC_CORE_MULTIRATE_HPP

/// \file multirate.hpp
/// Section 5.3: multirate packetization [15]. Under SIC the stronger
/// client is interference-limited only while the weaker client is still
/// on air; once the weaker packet ends, the stronger client can switch the
/// *rest of its packet* to its clean-channel best rate (Fig. 10f).
///
///   t₂ = L/r₂ (weaker finishes first in the interesting regime)
///   Z_mr = t₂ + max(0, L − r₁·t₂) / r₁'     with r₁' = r(S¹/N₀)
///
/// When the stronger client would anyway finish first (extreme disparity),
/// the weaker clean-rate transmission is the bottleneck and multirate
/// cannot help — Z_mr = Z₊SIC.

#include "core/upload_pair.hpp"

namespace sic::core {

struct MultirateResult {
  double airtime = 0.0;
  /// Bits of the stronger packet sent at the interference-limited rate
  /// before the switch point (== L when multirate never engaged).
  double overlap_bits = 0.0;
  bool boosted = false;  ///< whether a rate switch actually happened
};

/// The formula on rates already looked up: \p rates are the pair's SIC
/// rates and \p stronger_clean_rate is r(S¹/N₀). The clean rate is read
/// only when the stronger client lags (rates.stronger < rates.weaker), so
/// a caller may pass any value otherwise. schedule_upload's row kernel
/// calls this with the rates of its batched row lookup.
[[nodiscard]] MultirateResult multirate_airtime_detailed(
    double packet_bits, const SicRatePair& rates,
    BitsPerSecond stronger_clean_rate);

/// Completion time for the pair with multirate packetization on the
/// stronger client. Never worse than plain SIC (and never better than the
/// weaker packet's own airtime, which lower-bounds the pair).
[[nodiscard]] MultirateResult multirate_airtime_detailed(
    const UploadPairContext& ctx);

[[nodiscard]] double multirate_airtime(const UploadPairContext& ctx);

}  // namespace sic::core

#endif  // SICMAC_CORE_MULTIRATE_HPP
