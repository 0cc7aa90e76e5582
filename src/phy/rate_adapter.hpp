#ifndef SICMAC_PHY_RATE_ADAPTER_HPP
#define SICMAC_PHY_RATE_ADAPTER_HPP

/// \file rate_adapter.hpp
/// The SINR→bitrate policy, abstracted so every completion-time formula in
/// the core library can be evaluated both under the paper's main assumption
/// ("each packet is transmitted at the best feasible rate supported by the
/// channel", i.e. Shannon) and under discrete standard rate sets
/// (Section 7, Fig. 14b). This is the axis along which the paper's headline
/// claim — finer rate ladders squeeze SIC's slack — is reproduced.

#include <memory>
#include <span>
#include <string>

#include "phy/rate_table.hpp"
#include "util/units.hpp"

namespace sic::phy {

/// Maps an SINR to the best feasible transmission bitrate.
class RateAdapter {
 public:
  virtual ~RateAdapter() = default;

  /// Best feasible rate at the given linear SINR. Must be monotone
  /// non-decreasing in SINR and 0 for non-positive SINR.
  [[nodiscard]] virtual BitsPerSecond rate(double sinr_linear) const = 0;

  /// Batched lookup: out[i] = rate(sinr_linear[i]) for every element, with
  /// spans of equal length. The base implementation loops the virtual
  /// rate(); the concrete adapters override with a devirtualized loop so
  /// batch callers (the pair-cost engine's row kernel) pay one virtual
  /// dispatch per row instead of per pair. Overrides must stay
  /// element-wise bit-identical to rate() — the engine's bit-identity
  /// contract rides on it.
  virtual void rate_span(std::span<const double> sinr_linear,
                         std::span<BitsPerSecond> out) const;

  [[nodiscard]] virtual std::string name() const = 0;

  /// True when transmitting at \p r is feasible at \p sinr_linear under this
  /// policy. By monotonicity this is exactly rate(sinr) >= r.
  [[nodiscard]] bool feasible(BitsPerSecond r, double sinr_linear) const {
    return rate(sinr_linear) >= r;
  }
};

/// Ideal continuous (Shannon) rate adaptation: rate = B log₂(1 + SINR).
class ShannonRateAdapter final : public RateAdapter {
 public:
  explicit ShannonRateAdapter(Hertz bandwidth) : bandwidth_(bandwidth) {}

  [[nodiscard]] BitsPerSecond rate(double sinr_linear) const override;
  void rate_span(std::span<const double> sinr_linear,
                 std::span<BitsPerSecond> out) const override;
  [[nodiscard]] std::string name() const override { return "shannon"; }
  [[nodiscard]] Hertz bandwidth() const { return bandwidth_; }

 private:
  Hertz bandwidth_;
};

/// Discrete standard-rate adaptation via a RateTable step function.
/// Models a practical adapter that always picks the highest sustainable
/// standard rate (the "recent advances in bitrate adaptation" of [9-11]).
/// rate() and rate_span() both read RateTable::step_index(): the decision
/// of best_rate(Decibels::from_linear(x)) without the log10.
class DiscreteRateAdapter final : public RateAdapter {
 public:
  /// \p table must outlive the adapter (the canonical tables are static).
  explicit DiscreteRateAdapter(const RateTable& table) : table_(&table) {}

  [[nodiscard]] BitsPerSecond rate(double sinr_linear) const override;
  void rate_span(std::span<const double> sinr_linear,
                 std::span<BitsPerSecond> out) const override;
  [[nodiscard]] std::string name() const override { return table_->name(); }
  [[nodiscard]] const RateTable& table() const { return *table_; }

 private:
  const RateTable* table_;
};

}  // namespace sic::phy

#endif  // SICMAC_PHY_RATE_ADAPTER_HPP
