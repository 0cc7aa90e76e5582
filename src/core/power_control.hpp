#ifndef SICMAC_CORE_POWER_CONTROL_HPP
#define SICMAC_CORE_POWER_CONTROL_HPP

/// \file power_control.hpp
/// Section 5.2: "gain with SIC can be increased by reducing the power of
/// the weaker client, when the RSSs at the AP of both clients are close."
/// Scaling the weaker client's transmit power by β ∈ (0, 1] moves the pair
/// along a trade-off — the stronger client's interference-limited rate
/// rises, the weaker client's clean rate falls — and the completion time
/// max(L/r₁(β), L/r₂(β)) is minimized where the two rates meet.
///
/// Shannon closed form: equal rates ⇔ S¹/(βS² + N₀) = βS²/N₀, a quadratic
/// in (βS²):  (βS²)² + N₀(βS²) − S¹N₀ = 0  ⇒  βS²* = (−N₀ + √(N₀² + 4S¹N₀))/2.
/// Power is only ever *reduced* (the paper rules out boosting, Section 5.4),
/// so when βS²* > S² no reduction helps and the pair is left untouched.
///
/// For discrete policies the same objective is minimized over a dB grid of
/// β — 201 coarse points over [-40 dB, 0 dB], then 81 fine points within
/// ±0.2 dB of the best — with the result an exhaustive strict-`<` scan of
/// both grids would record. The search reads rate steps, not rates: each
/// SINR maps to an index into the RateTable through its exact linear
/// cutovers (no log10). Along an ascending grid the weaker client's step
/// never falls and the stronger's never rises, so the completion time is
/// the max of a non-increasing and a non-decreasing step function — a
/// single valley, whose first minimizer two bisections per grid find.
/// The grid scales are precomputed once per process.

#include "core/upload_pair.hpp"

namespace sic::core {

struct PowerControlResult {
  /// Linear power scale applied to the weaker client (1.0 = no change).
  double scale = 1.0;
  /// Completion time after the optimization (== sic_airtime when no
  /// reduction helps).
  double airtime = 0.0;
  /// Rates actually achieved at the chosen scale.
  SicRatePair rates;
  /// Whether any reduction was applied.
  bool applied = false;
};

/// Minimizes the pair completion time over weaker-client power scales
/// β ∈ (0, 1]. Never returns a result worse than plain SIC.
[[nodiscard]] PowerControlResult optimize_weaker_power(
    const UploadPairContext& ctx);

/// Completion time with the optimal weaker-power reduction applied.
[[nodiscard]] double power_controlled_airtime(const UploadPairContext& ctx);

}  // namespace sic::core

#endif  // SICMAC_CORE_POWER_CONTROL_HPP
