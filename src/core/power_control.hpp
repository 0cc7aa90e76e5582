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
/// both grids would record. Each grid point is evaluated in rate steps:
/// its SINRs map to indices into the RateTable through the exact linear
/// cutovers (no log10). Along an ascending grid the weaker client's step
/// never falls and the stronger's never rises, so the completion time is
/// the max of a non-increasing and a non-decreasing step function, a
/// single valley. The scan records the valley's first point, which sits
/// at one of two boundaries of monotone predicates: k, the first point
/// where the stronger client's airtime reaches the weaker's, or, when the
/// floor is the weaker side's, the first point of the weaker client's
/// plateau at its step just before k.
///
/// The search reads each boundary's position from the pair's RSS
/// instead of bisecting for it. A step's breakpoint in β is c·N₀/S² for
/// the weaker client and (S¹/c − N₀)/S² for the stronger, with c the
/// step's linear cutover; the first β at which the stronger client's step
/// is no longer above the weaker's is one of them, found once per pair and
/// placed on each grid by its dB value. The guess decides only where the
/// search looks. Exact probes, the scan's own arithmetic, must show the
/// predicate holding at the index and failing at the one below it; on a
/// miss the search walks along the predicate until they do. Those two
/// facts fix the first index at which a monotone predicate holds, which
/// is the index a point-by-point strict-`<` scan finds, so the result is
/// the exhaustive scan's whatever the guess. A good guess makes it about
/// two probes per boundary instead of a bisection's eight.
///
/// WeakerPowerSearch keeps what does not depend on the pair: the adapter,
/// resolved once, and the airtime of every rate step at one packet size.
/// schedule_upload builds one per schedule and hands it each pair's
/// full-power SIC rates from its row pass, so a pair whose stronger client
/// is not the strict bottleneck at β = 1 costs two divisions: no grid
/// point can beat β = 1 then, as lowering β never shortens the weaker
/// client's airtime. optimize_weaker_power() builds one per call.

#include <array>
#include <cstdint>

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

/// The weaker-power search for one rate adapter and packet size, with the
/// state every pair under them shares. Counts the discrete grid searches
/// it runs and the exact probes they make.
class WeakerPowerSearch {
 public:
  /// Rate steps of the largest table the search takes; 802.11n has 15.
  static constexpr std::size_t kMaxSteps = 64;

  /// \p adapter must be a Shannon or a discrete adapter (CheckError
  /// otherwise) and outlive the search; a discrete table has at most
  /// kMaxSteps rate steps.
  WeakerPowerSearch(const phy::RateAdapter& adapter, double packet_bits);

  /// optimize_weaker_power() for a pair under this adapter and packet
  /// size, given its SIC rates at β = 1: \p full_power must be sic_rates()
  /// of \p arrival under this adapter.
  [[nodiscard]] PowerControlResult optimize(
      const phy::TwoSignalArrival& arrival, const SicRatePair& full_power);

  /// Discrete grid searches run: pairs whose stronger client was the
  /// strict bottleneck at β = 1.
  [[nodiscard]] std::uint64_t searches() const { return searches_; }
  /// Exact probes those searches made; each maps one grid point to both
  /// clients' rate steps.
  [[nodiscard]] std::uint64_t probes() const { return probes_; }

 private:
  [[nodiscard]] PowerControlResult search_grids(
      const phy::TwoSignalArrival& arrival, const PowerControlResult& full);

  const phy::RateAdapter* adapter_;
  double packet_bits_;
  /// The discrete adapter's table; null for Shannon.
  const phy::RateTable* table_ = nullptr;
  /// airtime_seconds() of every rate step, and the cutovers' reciprocals;
  /// only the table's entries are written and read.
  std::array<double, kMaxSteps> step_airtime_;
  std::array<double, kMaxSteps> inverse_cutover_;
  std::uint64_t searches_ = 0;
  std::uint64_t probes_ = 0;
};

/// Minimizes the pair completion time over weaker-client power scales
/// β ∈ (0, 1]. Never returns a result worse than plain SIC.
[[nodiscard]] PowerControlResult optimize_weaker_power(
    const UploadPairContext& ctx);

/// Completion time with the optimal weaker-power reduction applied.
[[nodiscard]] double power_controlled_airtime(const UploadPairContext& ctx);

}  // namespace sic::core

#endif  // SICMAC_CORE_POWER_CONTROL_HPP
