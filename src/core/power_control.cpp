#include "core/power_control.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <span>
#include <utility>

#include "util/check.hpp"

namespace sic::core {

namespace {

/// Evaluates the pair at a given weaker-power scale.
PowerControlResult evaluate_at_scale(const UploadPairContext& ctx,
                                     double scale) {
  UploadPairContext scaled = ctx;
  scaled.arrival.weaker = ctx.arrival.weaker * scale;
  // Reducing the weaker client's power can never flip the strength order.
  PowerControlResult out;
  out.scale = scale;
  out.rates = sic_rates(scaled);
  out.airtime = sic_airtime(scaled);
  out.applied = scale < 1.0;
  return out;
}

/// Shannon-policy closed form: the βS² at which the two rates are equal.
double equal_rate_weaker_rss(const phy::TwoSignalArrival& a) {
  const double n0 = a.noise.value();
  const double s1 = a.stronger.value();
  return (-n0 + std::sqrt(n0 * n0 + 4.0 * s1 * n0)) / 2.0;
}

constexpr double kMinDb = -40.0;
constexpr int kCoarse = 201;  // 0.2 dB steps over [-40 dB, 0 dB]
constexpr int kFine = 81;     // ±0.2 dB at 0.005 dB steps

/// The dB grids of the discrete search and their linear scales, computed
/// once per process with the same pow and arguments as the exhaustive
/// scan, so the searched scales are bit-identical to it.
struct ScaleTables {
  std::array<double, kCoarse> coarse_scale;
  /// fine_scale[c][i]: fine point i of the refinement window around coarse
  /// point c, including the original loop's min(0 dB, ·) clamp.
  std::array<std::array<double, kFine>, kCoarse> fine_scale;
};

const ScaleTables& scale_tables() {
  static const ScaleTables tables = [] {
    ScaleTables t;
    for (int c = 0; c < kCoarse; ++c) {
      const double db = kMinDb + (0.0 - kMinDb) * c / (kCoarse - 1);
      t.coarse_scale[static_cast<std::size_t>(c)] = Decibels{db}.linear();
      for (int i = 0; i < kFine; ++i) {
        const double fine_db =
            std::min(0.0, db - 0.2 + 0.4 * i / (kFine - 1));
        t.fine_scale[static_cast<std::size_t>(c)][static_cast<std::size_t>(
            i)] = Decibels{fine_db}.linear();
      }
    }
    // first_minimizer() needs every grid in ascending order.
    SIC_CHECK(std::is_sorted(t.coarse_scale.begin(), t.coarse_scale.end()));
    for (const auto& window : t.fine_scale) {
      SIC_CHECK(std::is_sorted(window.begin(), window.end()));
    }
    return t;
  }();
  return tables;
}

/// The pair at a weaker-power scale under a discrete policy, in rate
/// steps: the same Milliwatts arithmetic as evaluate_at_scale(), with each
/// SINR mapped to its step by RateTable::step_index() — the lookup
/// DiscreteRateAdapter::rate() itself makes — and each step to its
/// airtime through a table filled once per pair by airtime_seconds(). So
/// every value below is bit-identical to the adapter path.
class StepProbe {
 public:
  /// Step count of the largest table the search takes; 802.11n has 15.
  static constexpr std::size_t kMaxSteps = 64;

  StepProbe(const UploadPairContext& ctx, const phy::RateTable& table)
      : arrival_(ctx.arrival), table_(&table) {
    const std::span<const BitsPerSecond> steps = table.rate_steps();
    SIC_CHECK_MSG(steps.size() <= kMaxSteps,
                  "rate table too large for the power-control search");
    for (std::size_t i = 0; i < steps.size(); ++i) {
      step_airtime_[i] = airtime_seconds(ctx.packet_bits, steps[i]);
    }
  }

  /// A_w: the weaker client's post-cancellation airtime at \p scale.
  [[nodiscard]] double weaker_airtime(double scale) const {
    return airtime(table_->step_index(scaled(scale) / arrival_.noise));
  }

  /// (A_s, A_w) at \p scale: the stronger client's interference-limited
  /// airtime and the weaker client's post-cancellation one.
  [[nodiscard]] std::pair<double, double> airtimes(double scale) const {
    const auto [stronger, weaker] = steps(scale);
    return {airtime(stronger), airtime(weaker)};
  }

  /// The full result at \p scale, as evaluate_at_scale() builds it.
  [[nodiscard]] PowerControlResult at(double scale) const {
    const auto [stronger, weaker] = steps(scale);
    const std::span<const BitsPerSecond> rates = table_->rate_steps();
    PowerControlResult out;
    out.scale = scale;
    out.rates = SicRatePair{rates[stronger], rates[weaker]};
    out.airtime = std::max(airtime(stronger), airtime(weaker));
    out.applied = scale < 1.0;
    return out;
  }

 private:
  [[nodiscard]] Milliwatts scaled(double scale) const {
    return arrival_.weaker * scale;
  }
  /// The (stronger, weaker) rate steps at \p scale.
  [[nodiscard]] std::pair<std::size_t, std::size_t> steps(double scale) const {
    const Milliwatts weaker = scaled(scale);
    return {table_->step_index(arrival_.stronger / (weaker + arrival_.noise)),
            table_->step_index(weaker / arrival_.noise)};
  }
  [[nodiscard]] double airtime(std::size_t step) const {
    return step_airtime_[step];
  }

  phy::TwoSignalArrival arrival_;
  const phy::RateTable* table_;
  std::array<double, kMaxSteps> step_airtime_{};
};

/// Index of the first minimiser of the pair airtime max(A_s, A_w) over an
/// ascending scale grid — the point an exhaustive strict-`<` scan records.
///
/// Along the grid the weaker client's SINR never falls and the stronger's
/// never rises, so A_w is non-increasing and A_s non-decreasing: once A_s
/// reaches A_w it stays the bottleneck. With k the first such point, the
/// airtime is A_w (falling) before k and A_s (rising) from k on — a single
/// valley whose floor is A_w(k−1) or A_s(k). One bisection finds k; when
/// the floor is A_w(k−1), a second finds the first point of that plateau.
std::size_t first_minimizer(const StepProbe& probe,
                            std::span<const double> scales) {
  std::size_t lo = 0;
  std::size_t hi = scales.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    const auto [a_s, a_w] = probe.airtimes(scales[mid]);
    if (a_s >= a_w) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  const std::size_t k = lo;
  if (k == 0) return 0;
  const double falling_floor = probe.weaker_airtime(scales[k - 1]);
  if (k < scales.size() && probe.at(scales[k]).airtime < falling_floor) {
    return k;
  }
  lo = 0;
  hi = k - 1;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (probe.weaker_airtime(scales[mid]) <= falling_floor) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

/// Discrete-policy search: the coarse dB grid over [-40 dB, 0 dB], then one
/// refinement window around the best coarse point, each scanned in order
/// with strict `<` against the running best. Every grid's first minimiser
/// comes from first_minimizer() instead of a point-by-point scan.
PowerControlResult optimize_over_steps(const UploadPairContext& ctx,
                                       const phy::RateTable& table) {
  const StepProbe probe{ctx, table};
  PowerControlResult best = probe.at(1.0);
  // Lowering β never shortens the weaker client's airtime, so no grid
  // point beats β = 1 unless the stronger client is the strict bottleneck
  // there (a silent weaker client never is: its airtime is infinite).
  const auto [a_s, a_w] = probe.airtimes(1.0);
  if (!(a_s > a_w)) return best;

  const ScaleTables& tables = scale_tables();
  // 0 dB — the refinement window when no coarse point beats β = 1.
  std::size_t window = kCoarse - 1;
  const std::size_t c = first_minimizer(probe, tables.coarse_scale);
  const PowerControlResult coarse = probe.at(tables.coarse_scale[c]);
  if (coarse.airtime < best.airtime) {
    best = coarse;
    window = c;
  }
  const std::span<const double> fine = tables.fine_scale[window];
  const PowerControlResult refined = probe.at(fine[first_minimizer(probe, fine)]);
  if (refined.airtime < best.airtime) best = refined;
  return best;
}

}  // namespace

PowerControlResult optimize_weaker_power(const UploadPairContext& ctx) {
  SIC_CHECK(ctx.adapter != nullptr);
  if (const auto* discrete =
          dynamic_cast<const phy::DiscreteRateAdapter*>(ctx.adapter)) {
    return optimize_over_steps(ctx, discrete->table());
  }
  SIC_CHECK_MSG(
      dynamic_cast<const phy::ShannonRateAdapter*>(ctx.adapter) != nullptr,
      "power control needs a Shannon or a discrete rate adapter");
  PowerControlResult best = evaluate_at_scale(ctx, 1.0);
  best.applied = false;
  if (ctx.arrival.weaker.value() <= 0.0) return best;

  const double target = equal_rate_weaker_rss(ctx.arrival);
  const double scale = target / ctx.arrival.weaker.value();
  if (scale < 1.0) {
    PowerControlResult cand = evaluate_at_scale(ctx, scale);
    if (cand.airtime < best.airtime) return cand;
  }
  return best;
}

double power_controlled_airtime(const UploadPairContext& ctx) {
  return optimize_weaker_power(ctx).airtime;
}

}  // namespace sic::core
