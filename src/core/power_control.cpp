#include "core/power_control.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>

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
constexpr double kCoarseStepDb = 0.2;
constexpr double kFineStepDb = 0.005;
constexpr double kFineHalfWidthDb = 0.2;

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
    // The boundary walks need every grid in ascending order.
    SIC_CHECK(std::is_sorted(t.coarse_scale.begin(), t.coarse_scale.end()));
    for (const auto& window : t.fine_scale) {
      SIC_CHECK(std::is_sorted(window.begin(), window.end()));
    }
    return t;
  }();
  return tables;
}

/// A grid's points in dB: point i sits at origin_db + i / points_per_db
/// (before the fine windows' 0 dB clamp). Only guesses read it.
struct GridPlacement {
  double origin_db;
  double points_per_db;
};

/// The first index of a \p size point grid whose point is at or above
/// \p db, clamped to [0, size]; NaN and -inf place at 0. A guess: the
/// walks confirm it against the exact predicates.
std::size_t place(double db, const GridPlacement& placement,
                  std::size_t size) {
  const double x =
      std::ceil((db - placement.origin_db) * placement.points_per_db);
  if (!(x > 0.0)) return 0;
  if (!(x < static_cast<double>(size))) return size;
  return static_cast<std::size_t>(x);
}

/// One pair's discrete grid search. Its probes make the same Milliwatts
/// arithmetic as evaluate_at_scale() and map each SINR to the number of
/// linear cutovers it meets — RateTable::step_index(), the lookup
/// DiscreteRateAdapter::rate() itself makes — so every probed airtime is
/// bit-identical to the adapter path.
class PairSearch {
 public:
  /// Both clients' rate steps at one scale.
  struct Point {
    std::size_t stronger = 0;
    std::size_t weaker = 0;
  };
  /// A grid's first minimiser and the point there.
  struct Found {
    std::size_t index;
    Point point;
  };

  PairSearch(const phy::TwoSignalArrival& arrival,
             const phy::RateTable& table, std::span<const double> step_airtime,
             std::span<const double> inverse_cutover)
      : arrival_(arrival),
        table_(table),
        cutover_(table.linear_cutovers()),
        step_airtime_(step_airtime) {
    // In x = βS², the weaker client's scaled RSS, the weaker client meets
    // cutover c once x >= c·N₀ and the stronger once x <= S¹/c − N₀. The
    // stronger client's step is no longer above the weaker's from the
    // least x at which, for some step L, the weaker client meets L and the
    // stronger misses L + 1 (L = 0 and the top step need only one side).
    // Over L that x falls while the stronger side sets it and rises once
    // the weaker side does, so the scan stops at the first rise.
    const double n0 = arrival.noise.value();
    const double s1 = arrival.stronger.value();
    const std::size_t top = cutover_.size();
    double crossing = std::numeric_limits<double>::infinity();
    for (std::size_t step = 0; step <= top; ++step) {
      const double weaker_meets = step == 0 ? 0.0 : cutover_[step - 1] * n0;
      const double stronger_misses =
          step == top ? 0.0 : s1 * inverse_cutover[step] - n0;
      const double x = std::max(weaker_meets, stronger_misses);
      if (!(x < crossing)) break;
      crossing = x;
      crossing_step_ = step;
      // When the stronger client's drop sets the crossing, both clients
      // sit on step L on either side of it, so the valley's floor is the
      // weaker client's plateau on L.
      plateau_step_ = stronger_misses > weaker_meets ? step : kNoPlateau;
    }
    crossing_db_ =
        Decibels::from_linear(crossing / arrival.weaker.value()).value();
    if (plateau_step_ != kNoPlateau) {
      plateau_db_ = weaker_breakpoint_db(plateau_step_);
    }
  }

  /// Index of the first minimiser of the pair airtime max(A_s, A_w) over an
  /// ascending scale grid — the point an exhaustive strict-`<` scan
  /// records — and the point there.
  ///
  /// Along the grid A_w is non-increasing and A_s non-decreasing, so once
  /// A_s reaches A_w it stays the bottleneck. With k the first such point,
  /// the airtime is A_w (falling) before k and A_s (rising) from k on: a
  /// single valley whose floor is A_w(k−1) or A_s(k). When it is A_w(k−1),
  /// the minimiser is the first point of that plateau, the first with
  /// A_w <= A_w(k−1). Each boundary starts from its breakpoint's place on
  /// the grid; the plateau's is probed alongside k's when the crossing
  /// predicts it.
  Found first_minimizer(std::span<const double> scales,
                        const GridPlacement& placement) {
    const std::size_t n = scales.size();
    Bracket k = bracket(scales, place(crossing_db_, placement, n));
    Bracket plateau;
    if (plateau_step_ != kNoPlateau) {
      plateau = bracket(scales, place(plateau_db_, placement, n));
    }
    k = walk(scales, n, k, [&](const Point& point) {
      return airtime(point.stronger) >= airtime(point.weaker);
    });
    if (k.index == 0) return {0, k.at};
    const double falling_floor = airtime(k.below.weaker);
    if (k.index < n && pair_airtime(k.at) < falling_floor) {
      return {k.index, k.at};
    }

    // The plateau lies in [0, k − 1], where its predicate holds at k − 1.
    if (plateau_step_ != k.below.weaker || plateau.index >= k.index) {
      plateau = bracket(
          scales, std::min(place(weaker_breakpoint_db(k.below.weaker),
                                 placement, n),
                           k.index - 1));
    }
    plateau = walk(scales, k.index, plateau, [&](const Point& point) {
      return airtime(point.weaker) <= falling_floor;
    });
    return {plateau.index, plateau.at};
  }

  /// The result at \p scale from its point, as evaluate_at_scale() builds
  /// it.
  [[nodiscard]] PowerControlResult result(double scale, Point point) const {
    const std::span<const BitsPerSecond> rates = table_.rate_steps();
    PowerControlResult out;
    out.scale = scale;
    out.rates = SicRatePair{rates[point.stronger], rates[point.weaker]};
    out.airtime = pair_airtime(point);
    out.applied = scale < 1.0;
    return out;
  }

  [[nodiscard]] std::uint64_t probes() const { return probes_; }

 private:
  static constexpr std::size_t kNoPlateau = ~std::size_t{0};

  /// A candidate boundary index with the points at it (when < the grid's
  /// end) and below it (when > 0).
  struct Bracket {
    std::size_t index = 0;
    Point at;
    Point below;
  };

  /// The bracket at \p index, its two probes independent of each other.
  Bracket bracket(std::span<const double> scales, std::size_t index) {
    Bracket b;
    b.index = index;
    if (index < scales.size()) b.at = probe(scales[index]);
    if (index > 0) b.below = probe(scales[index - 1]);
    return b;
  }

  /// Walks \p b to the first index in [0, end) whose point meets the
  /// monotone \p holds, or to \p end when none does: up while the point
  /// at the index fails, down while the point below it holds.
  template <typename Holds>
  Bracket walk(std::span<const double> scales, std::size_t end, Bracket b,
               Holds holds) {
    if (b.index < end && !holds(b.at)) {
      do {
        b.below = b.at;
        if (++b.index == end) break;
        b.at = probe(scales[b.index]);
      } while (!holds(b.at));
    } else {
      while (b.index > 0 && holds(b.below)) {
        b.at = b.below;
        if (--b.index > 0) b.below = probe(scales[b.index - 1]);
      }
    }
    return b;
  }

  Point probe(double scale) {
    ++probes_;
    const Milliwatts weaker = arrival_.weaker * scale;
    return {step_index(arrival_.stronger / (weaker + arrival_.noise)),
            step_index(weaker / arrival_.noise)};
  }
  /// RateTable::step_index(sinr), counted from the crossing's step instead
  /// of from 0: the met cutovers are a prefix, so the count is the first
  /// cutover \p sinr misses, and the probes near the boundaries sit within
  /// a step or two of the crossing.
  [[nodiscard]] std::size_t step_index(double sinr) const {
    std::size_t step = crossing_step_;
    while (step < cutover_.size() && sinr >= cutover_[step]) ++step;
    while (step > 0 && !(sinr >= cutover_[step - 1])) --step;
    return step;
  }
  [[nodiscard]] double airtime(std::size_t step) const {
    return step_airtime_[step];
  }
  [[nodiscard]] double pair_airtime(const Point& point) const {
    return std::max(airtime(point.stronger), airtime(point.weaker));
  }
  /// dB of the β at which the weaker client meets \p step (-inf for step
  /// 0, which every β meets).
  [[nodiscard]] double weaker_breakpoint_db(std::size_t step) const {
    if (step == 0) return -std::numeric_limits<double>::infinity();
    return Decibels::from_linear(cutover_[step - 1] *
                                 arrival_.noise.value() /
                                 arrival_.weaker.value())
        .value();
  }

  const phy::TwoSignalArrival& arrival_;
  const phy::RateTable& table_;
  std::span<const double> cutover_;
  std::span<const double> step_airtime_;
  double crossing_db_ = 0.0;
  /// The step both clients share at the crossing.
  std::size_t crossing_step_ = 0;
  /// The step whose weaker-client plateau the crossing predicts as the
  /// valley's floor, and its breakpoint; kNoPlateau when it predicts A_s(k).
  std::size_t plateau_step_ = kNoPlateau;
  double plateau_db_ = 0.0;
  std::uint64_t probes_ = 0;
};

}  // namespace

WeakerPowerSearch::WeakerPowerSearch(const phy::RateAdapter& adapter,
                                     double packet_bits)
    : adapter_(&adapter), packet_bits_(packet_bits) {
  if (const auto* discrete =
          dynamic_cast<const phy::DiscreteRateAdapter*>(&adapter)) {
    table_ = &discrete->table();
    const std::span<const BitsPerSecond> steps = table_->rate_steps();
    SIC_CHECK_MSG(steps.size() <= kMaxSteps,
                  "rate table too large for the power-control search");
    for (std::size_t i = 0; i < steps.size(); ++i) {
      step_airtime_[i] = airtime_seconds(packet_bits, steps[i]);
    }
    const std::span<const double> cutovers = table_->linear_cutovers();
    for (std::size_t i = 0; i < cutovers.size(); ++i) {
      inverse_cutover_[i] = 1.0 / cutovers[i];
    }
    return;
  }
  SIC_CHECK_MSG(dynamic_cast<const phy::ShannonRateAdapter*>(&adapter) !=
                    nullptr,
                "power control needs a Shannon or a discrete rate adapter");
}

PowerControlResult WeakerPowerSearch::optimize(
    const phy::TwoSignalArrival& arrival, const SicRatePair& full_power) {
  const double a_s = airtime_seconds(packet_bits_, full_power.stronger);
  const double a_w = airtime_seconds(packet_bits_, full_power.weaker);
  PowerControlResult best;
  best.rates = full_power;
  best.airtime = std::max(a_s, a_w);
  if (table_ != nullptr) {
    // Lowering β never shortens the weaker client's airtime, so no grid
    // point beats β = 1 unless the stronger client is the strict
    // bottleneck there (a silent weaker client never is: its airtime is
    // infinite).
    if (!(a_s > a_w)) return best;
    return search_grids(arrival, best);
  }
  if (arrival.weaker.value() <= 0.0) return best;
  const double scale = equal_rate_weaker_rss(arrival) / arrival.weaker.value();
  if (scale < 1.0) {
    UploadPairContext ctx;
    ctx.arrival = arrival;
    ctx.packet_bits = packet_bits_;
    ctx.adapter = adapter_;
    PowerControlResult cand = evaluate_at_scale(ctx, scale);
    if (cand.airtime < best.airtime) return cand;
  }
  return best;
}

/// Discrete-policy search: the coarse dB grid over [-40 dB, 0 dB], then one
/// refinement window around the best coarse point, each scanned in order
/// with strict `<` against the running best. Every grid's first minimiser
/// comes from PairSearch::first_minimizer() instead of a point-by-point
/// scan.
PowerControlResult WeakerPowerSearch::search_grids(
    const phy::TwoSignalArrival& arrival, const PowerControlResult& full) {
  ++searches_;
  PairSearch pair{arrival, *table_, step_airtime_, inverse_cutover_};
  const ScaleTables& tables = scale_tables();
  PowerControlResult best = full;
  // 0 dB — the refinement window when no coarse point beats β = 1.
  std::size_t window = kCoarse - 1;
  const auto [c, at_c] = pair.first_minimizer(
      tables.coarse_scale, GridPlacement{kMinDb, 1.0 / kCoarseStepDb});
  const PowerControlResult coarse = pair.result(tables.coarse_scale[c], at_c);
  if (coarse.airtime < best.airtime) {
    best = coarse;
    window = c;
  }
  const std::span<const double> fine = tables.fine_scale[window];
  const double window_db =
      kMinDb + kCoarseStepDb * static_cast<double>(window);
  const auto [f, at_f] = pair.first_minimizer(
      fine, GridPlacement{window_db - kFineHalfWidthDb, 1.0 / kFineStepDb});
  const PowerControlResult refined = pair.result(fine[f], at_f);
  if (refined.airtime < best.airtime) best = refined;
  probes_ += pair.probes();
  return best;
}

PowerControlResult optimize_weaker_power(const UploadPairContext& ctx) {
  SIC_CHECK(ctx.adapter != nullptr);
  return WeakerPowerSearch{*ctx.adapter, ctx.packet_bits}.optimize(
      ctx.arrival, sic_rates(ctx));
}

double power_controlled_airtime(const UploadPairContext& ctx) {
  return optimize_weaker_power(ctx).airtime;
}

}  // namespace sic::core
