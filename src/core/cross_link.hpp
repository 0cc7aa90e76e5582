#ifndef SICMAC_CORE_CROSS_LINK_HPP
#define SICMAC_CORE_CROSS_LINK_HPP

/// \file cross_link.hpp
/// Section 3.2: two transmitters to two *different* receivers — the
/// building block where the paper finds SIC almost never helps (Fig. 6:
/// "no gain from SIC in 90% of the cases").
///
/// With S_j^i = RSS of T_i at R_j and intended links T1→R1, T2→R2, the four
/// cases of Fig. 5 are classified by which receiver hears its own
/// transmitter stronger than the interferer:
///
///   (a) S₁¹ > S₁² and S₂² > S₂¹ — capture works at both; SIC not needed.
///   (b) S₁¹ > S₁² and S₂² < S₂¹ — SIC needed at R2 only. T1 transmits at
///       its own optimal concurrent rate r₁ = r(S₁¹/(S₁²+N₀)); R2 can
///       cancel T1 only if it can decode that rate: S₂¹/(S₂²+N₀) ≥ the SINR
///       r₁ requires. Then Z₊SIC = eq (7), Z₋SIC = eq (8).
///   (c) mirror of (b) with the roles swapped.
///   (d) both receivers need SIC. Each transmitter uses its clean rate
///       (interference vanishes after cancellation); feasibility needs
///       S₂¹/(S₂²+N₀) ≥ SINR(r₁clean) at R2 and S₁²/(S₁¹+N₀) ≥ SINR(r₂clean)
///       at R1. Then Z₊SIC = eq (9).
///
/// The reported gain is what a rational MAC realizes: serial transmission
/// is always available, so gain = max(1, Z₋SIC/Z₊SIC), and 1 whenever SIC
/// is unneeded or infeasible.

#include "channel/two_link_rss.hpp"
#include "phy/rate_adapter.hpp"

namespace sic::core {

enum class CrossLinkCase {
  kCaptureBoth,  ///< Fig. 5a — SIC not needed
  kSicAtR2,      ///< Fig. 5b
  kSicAtR1,      ///< Fig. 5c
  kSicAtBoth,    ///< Fig. 5d
};

[[nodiscard]] constexpr const char* to_string(CrossLinkCase c) {
  switch (c) {
    case CrossLinkCase::kCaptureBoth: return "capture-both";
    case CrossLinkCase::kSicAtR2: return "sic-at-r2";
    case CrossLinkCase::kSicAtR1: return "sic-at-r1";
    case CrossLinkCase::kSicAtBoth: return "sic-at-both";
  }
  return "?";
}

[[nodiscard]] CrossLinkCase classify_cross_link(const channel::TwoLinkRss& rss);

struct CrossLinkResult {
  CrossLinkCase kase = CrossLinkCase::kCaptureBoth;
  bool sic_feasible = false;    ///< topological conditions hold
  double serial_airtime = 0.0;  ///< Z₋SIC: both packets serially, clean rates
  double concurrent_airtime = 0.0;  ///< Z₊SIC; +inf when infeasible
  double gain = 1.0;            ///< realized gain, ≥ 1
};

struct CrossLinkOptions {
  double packet_bits = 12000.0;
  /// When true, case (a) — both receivers capture their own signal — is
  /// also allowed to run concurrently (each link at its interference-
  /// limited rate). That concurrency needs no cancellation, but it *is*
  /// unlocked by deploying SIC-capable scheduling instead of carrier-sense
  /// serialization, and the paper's trace evaluation (Fig. 14) counts it.
  /// The pure-SIC accounting of Fig. 6 keeps it off.
  bool include_capture_concurrency = false;
};

/// Evaluates the two-link building block for one packet of \p packet_bits
/// on each link under the given rate policy.
[[nodiscard]] CrossLinkResult evaluate_cross_link(
    const channel::TwoLinkRss& rss, const phy::RateAdapter& adapter,
    double packet_bits = 12000.0);

/// Options-taking overload.
[[nodiscard]] CrossLinkResult evaluate_cross_link(
    const channel::TwoLinkRss& rss, const phy::RateAdapter& adapter,
    const CrossLinkOptions& options);

/// Cross-link packet packing (Section 7 uses it for the download traces):
/// when concurrent SIC transmission is feasible and one link's packet ends
/// early, that link packs extra packets into the other's airtime. Returns
/// the realized throughput-normalized gain (≥ 1), falling back to
/// evaluate_cross_link's gain when packing cannot engage.
[[nodiscard]] double cross_link_packing_gain(const channel::TwoLinkRss& rss,
                                             const phy::RateAdapter& adapter,
                                             double packet_bits = 12000.0);

/// Options-taking overload.
[[nodiscard]] double cross_link_packing_gain(const channel::TwoLinkRss& rss,
                                             const phy::RateAdapter& adapter,
                                             const CrossLinkOptions& options);

/// Fig. 11b power control: the best realized gain (≥ 1) of
/// evaluate_cross_link over power reductions of either transmitter, on the
/// grid 0, −0.25, …, −20 dB (reductions only, per Section 5.4's caveat
/// against boosting). A reduction scales both RSS entries of the
/// transmitter; the serial baseline always uses full power.
///
/// Returns exactly the value of scanning all 161 grid points, from a
/// search that evaluates only a few of them (DESIGN.md, "Fig 11b
/// power-control search"). Expects finite, non-negative RSS and positive
/// noise.
[[nodiscard]] double cross_link_power_control_gain(
    const channel::TwoLinkRss& rss, const phy::RateAdapter& adapter,
    double packet_bits = 12000.0);

}  // namespace sic::core

#endif  // SICMAC_CORE_CROSS_LINK_HPP
