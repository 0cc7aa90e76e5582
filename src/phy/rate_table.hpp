#ifndef SICMAC_PHY_RATE_TABLE_HPP
#define SICMAC_PHY_RATE_TABLE_HPP

/// \file rate_table.hpp
/// Discrete bitrate sets of the 802.11 family, with per-rate minimum SINR
/// thresholds. The paper's core argument is that the slack SIC can harness
/// shrinks as rate sets get finer — "4 in 802.11b vs 8 in 802.11g vs 32 in
/// 802.11n" (Section 1) — and Section 7 re-evaluates the gains under the
/// discrete 802.11g set. These tables are the discrete-rate oracle standing
/// in for the paper's empirical 90 %-delivery rate scans (see DESIGN.md,
/// substitution 2): the scan produces exactly a monotone step function from
/// SINR to the best sustainable standard rate.

#include <span>
#include <string>
#include <vector>

#include "util/units.hpp"

namespace sic::phy {

/// One standard rate and the minimum SINR at which it sustains ~90 % packet
/// delivery. Thresholds follow the commonly used OFDM receiver sensitivity
/// deltas (e.g. Halperin et al., and vendor datasheets) — the *shape*
/// (monotone steps ~2-4 dB apart) is what matters for the reproduction.
struct RateEntry {
  BitsPerSecond rate;
  Decibels min_sinr;
};

/// A monotone SINR→rate step function.
class RateTable {
 public:
  /// \p entries must be strictly increasing in both rate and threshold.
  explicit RateTable(std::string name, std::vector<RateEntry> entries);

  /// Highest rate whose threshold the given SINR meets; 0 bps when even the
  /// base rate is infeasible.
  [[nodiscard]] BitsPerSecond best_rate(Decibels sinr) const;

  /// Lowest SINR that sustains the given rate; used to invert measurements.
  /// Requires \p rate to be one of the table's rates.
  [[nodiscard]] Decibels min_sinr_for(BitsPerSecond rate) const;

  /// True when \p rate is feasible at \p sinr (rate must be in the table).
  [[nodiscard]] bool supports(BitsPerSecond rate, Decibels sinr) const;

  [[nodiscard]] std::span<const RateEntry> entries() const { return entries_; }

  /// The thresholds translated into the *linear* SINR domain for
  /// step_index(): linear_cutovers()[i] is the smallest
  /// positive double whose dB image meets entries()[i].min_sinr, found by
  /// ulp walk against the exact scalar predicate at construction. So
  /// (sinr_linear >= linear_cutovers()[i]) is exactly equivalent to
  /// (Decibels::from_linear(sinr_linear) >= entries()[i].min_sinr) for
  /// every double — bit-identical decisions with no log10 per lane
  /// (pinned in tests/rate_adapter_test.cpp).
  [[nodiscard]] std::span<const double> linear_cutovers() const {
    return linear_cutovers_;
  }
  /// rate_steps()[k] is the rate earned by meeting the first k cutovers
  /// (the met set is always a prefix — thresholds increase); rate_steps()[0]
  /// is 0 bps, "even the base rate is infeasible".
  [[nodiscard]] std::span<const BitsPerSecond> rate_steps() const {
    return rate_steps_;
  }

  /// The rate step of a linear SINR: how many linear_cutovers() it meets,
  /// so rate_steps()[step_index(x)] == best_rate(Decibels::from_linear(x))
  /// for every double with no log10. Monotone non-decreasing in x; x <= 0
  /// and NaN meet no cutover and land on step 0. Every discrete rate
  /// decision (DiscreteRateAdapter, the power-control search) reads it.
  [[nodiscard]] std::size_t step_index(double sinr_linear) const {
    // Branchless count: the met set is a prefix, so the count is the step.
    std::size_t step = 0;
    for (const double cut : linear_cutovers_) {
      step += static_cast<std::size_t>(sinr_linear >= cut);
    }
    return step;
  }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] BitsPerSecond top_rate() const { return entries_.back().rate; }
  [[nodiscard]] BitsPerSecond base_rate() const { return entries_.front().rate; }

  /// 802.11b: 4 rates (1, 2, 5.5, 11 Mbps).
  [[nodiscard]] static const RateTable& dot11b();
  /// 802.11g: 8 OFDM rates (6..54 Mbps).
  [[nodiscard]] static const RateTable& dot11g();
  /// 802.11n, 20 MHz, long GI, MCS 0-31 (1-4 spatial streams): 32 rates.
  [[nodiscard]] static const RateTable& dot11n();

 private:
  std::string name_;
  std::vector<RateEntry> entries_;
  std::vector<double> linear_cutovers_;     ///< size entries_.size()
  std::vector<BitsPerSecond> rate_steps_;   ///< size entries_.size() + 1
};

}  // namespace sic::phy

#endif  // SICMAC_PHY_RATE_TABLE_HPP
