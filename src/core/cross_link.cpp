#include "core/cross_link.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>

#include "util/check.hpp"
#include "util/units.hpp"

namespace sic::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Concurrent rate pair (T1→R1, T2→R2) and joint feasibility for one case.
struct ConcurrentRates {
  double r1 = 0.0;
  double r2 = 0.0;
  bool feasible = false;
};

/// Case (a): both receivers capture; concurrency (when allowed) runs each
/// link at its interference-limited rate with no cancellation step.
ConcurrentRates rates_case_a(const channel::TwoLinkRss& rss,
                             const phy::RateAdapter& adapter) {
  ConcurrentRates out;
  const auto n = rss.noise;
  out.r1 = adapter.rate(rss.s11 / (rss.s12 + n)).value();
  out.r2 = adapter.rate(rss.s22 / (rss.s21 + n)).value();
  out.feasible = out.r1 > 0.0 && out.r2 > 0.0;
  return out;
}

/// Case (b): SIC at R2 only. T1 uses its own concurrent-optimal rate; R2
/// must be able to decode it before cancelling.
ConcurrentRates rates_case_b(const channel::TwoLinkRss& rss,
                             const phy::RateAdapter& adapter) {
  ConcurrentRates out;
  const auto n = rss.noise;
  const auto r1 = adapter.rate(rss.s11 / (rss.s12 + n));
  const auto r2 = adapter.rate(rss.s22 / n);
  out.r1 = r1.value();
  out.r2 = r2.value();
  const double sinr_t1_at_r2 = rss.s21 / (rss.s22 + n);
  out.feasible = out.r1 > 0.0 && out.r2 > 0.0 &&
                 adapter.feasible(r1, sinr_t1_at_r2);
  return out;
}

/// Case (d): SIC at both receivers; both transmitters run clean rates.
ConcurrentRates rates_case_d(const channel::TwoLinkRss& rss,
                             const phy::RateAdapter& adapter) {
  ConcurrentRates out;
  const auto n = rss.noise;
  const auto r1 = adapter.rate(rss.s11 / n);
  const auto r2 = adapter.rate(rss.s22 / n);
  out.r1 = r1.value();
  out.r2 = r2.value();
  const bool ok_at_r2 = adapter.feasible(r1, rss.s21 / (rss.s22 + n));
  const bool ok_at_r1 = adapter.feasible(r2, rss.s12 / (rss.s11 + n));
  out.feasible = out.r1 > 0.0 && out.r2 > 0.0 && ok_at_r2 && ok_at_r1;
  return out;
}

ConcurrentRates concurrent_rates(const channel::TwoLinkRss& rss,
                                 const phy::RateAdapter& adapter,
                                 CrossLinkCase kase,
                                 bool include_capture_concurrency) {
  switch (kase) {
    case CrossLinkCase::kCaptureBoth:
      if (include_capture_concurrency) return rates_case_a(rss, adapter);
      return ConcurrentRates{};  // SIC not needed; no SIC rates to speak of
    case CrossLinkCase::kSicAtR2:
      return rates_case_b(rss, adapter);
    case CrossLinkCase::kSicAtR1: {
      // Mirror of case (b): swap link roles, solve, swap back.
      ConcurrentRates m = rates_case_b(rss.mirrored(), adapter);
      std::swap(m.r1, m.r2);
      return m;
    }
    case CrossLinkCase::kSicAtBoth:
      return rates_case_d(rss, adapter);
  }
  return ConcurrentRates{};
}

/// Fig. 11b's power-control grid: step k backs one transmitter off by
/// 0.25·k dB, from full power (k = 0) down to −20 dB (k = 80).
constexpr int kBackoffSteps = 80;
using BackoffScales = std::array<double, kBackoffSteps + 1>;

/// The grid's linear scales. The search needs them strictly decreasing in
/// k, which std::pow does not promise, so that is checked once here.
const BackoffScales& backoff_scales() {
  static const BackoffScales scales = [] {
    BackoffScales s{};
    s[0] = 1.0;
    for (int k = 1; k <= kBackoffSteps; ++k) {
      s[k] = Decibels{-20.0 * k / kBackoffSteps}.linear();
      SIC_CHECK(s[k] < s[k - 1]);
    }
    return s;
  }();
  return scales;
}

/// Branch and bound over the back-off grid of transmitter T1; the T2
/// direction runs on rss.mirrored(), which evaluate_cross_link treats
/// symmetrically. Step k scales T1's RSS to a_k = S₁¹·scale_k at R1 and
/// c_k = S₂¹·scale_k at R2. IEEE rounding keeps both non-increasing in k,
/// so with a monotone RateAdapter every rate below is monotone along the
/// grid, and the Fig. 5 case runs (b), then (a) or (d), then (c).
class BackoffSearch {
 public:
  BackoffSearch(const channel::TwoLinkRss& rss,
                const phy::RateAdapter& adapter, double r2_clean)
      : rss_(rss), adapter_(adapter), r2_clean_(r2_clean) {}

  /// Raises \p best to the largest min(r1, r2) over the feasible steps in
  /// [first, kBackoffSteps]. A step's realized gain only grows with that
  /// minimum, so the grid's best gain sits at the returned one.
  void run(int first, double& best);

 private:
  /// The rates the cases read at step k, each computed at most once.
  enum Rate {
    kR1Interfered,  ///< r(a_k/(S₁²+N₀)), T1's rate in (b); never rises
    kR1Clean,       ///< r(a_k/N₀), T1's rate in (c) and (d); never rises
    kT1AtR2,        ///< r(c_k/(S₂²+N₀)), R2 decoding T1; never rises
    kT2AtR1,        ///< r(S₁²/(a_k+N₀)), R1 decoding T2; never falls
    kR2Interfered,  ///< r(S₂²/(c_k+N₀)), T2's rate in (c); never falls
    kRates
  };

  double at(Rate rate, int k);

  /// Raises \p best over the feasible steps of [k, j]. \p bound(k, j)
  /// caps min(r1, r2) on [k, j], and \p dead(k, j) proves every step there
  /// infeasible; either drops the interval, else it is halved.
  template <typename Bound, typename Dead>
  void bisect(int k, int j, double& best, const Bound& bound,
              const Dead& dead);

  const channel::TwoLinkRss& rss_;
  const phy::RateAdapter& adapter_;
  double r2_clean_;  ///< r(S₂²/N₀): T2's rate in (b) and (d)
  /// memo_[rate][k] holds a computed rate once bit k of known_[rate] is
  /// set, and is never read before. Left uninitialized: filling it would
  /// cost a fifth of a search.
  std::array<std::array<double, kBackoffSteps + 1>, kRates> memo_;
  std::array<std::array<std::uint64_t, 2>, kRates> known_{};
};

double BackoffSearch::at(Rate rate, int k) {
  std::uint64_t& word = known_[rate][static_cast<std::size_t>(k >> 6)];
  const std::uint64_t bit = std::uint64_t{1} << (k & 63);
  double& slot = memo_[rate][static_cast<std::size_t>(k)];
  if ((word & bit) != 0) return slot;
  word |= bit;
  // The expressions evaluate_cross_link applies to the scaled RSS.
  const double scale = backoff_scales()[static_cast<std::size_t>(k)];
  const Milliwatts n = rss_.noise;
  double sinr = 0.0;
  switch (rate) {
    case kR1Interfered: sinr = rss_.s11 * scale / (rss_.s12 + n); break;
    case kR1Clean: sinr = rss_.s11 * scale / n; break;
    case kT1AtR2: sinr = rss_.s21 * scale / (rss_.s22 + n); break;
    case kT2AtR1: sinr = rss_.s12 / (rss_.s11 * scale + n); break;
    case kR2Interfered: sinr = rss_.s22 / (rss_.s21 * scale + n); break;
    case kRates: break;
  }
  slot = adapter_.rate(sinr).value();
  return slot;
}

template <typename Bound, typename Dead>
void BackoffSearch::bisect(int k, int j, double& best, const Bound& bound,
                           const Dead& dead) {
  if (k > j) return;
  const double cap = bound(k, j);
  if (cap <= best || dead(k, j)) return;
  if (k == j) {
    // cap > best >= 0 puts both rates above 0, and !dead is the case's
    // decode condition: step k is feasible with min(r1, r2) = cap.
    best = cap;
    return;
  }
  const int m = k + (j - k) / 2;
  if (bound(m + 1, j) > bound(k, m)) {
    bisect(m + 1, j, best, bound, dead);
    bisect(k, m, best, bound, dead);
  } else {
    bisect(k, m, best, bound, dead);
    bisect(m + 1, j, best, bound, dead);
  }
}

void BackoffSearch::run(int first, double& best) {
  const BackoffScales& scale = backoff_scales();
  const auto boundary = [&](auto holds) {
    return static_cast<int>(
        std::partition_point(scale.begin() + first, scale.end(), holds) -
        scale.begin());
  };
  // R1 captures T1 (a_k >= S₁²) on [first, p1); R2 hears T1 louder than T2
  // (c_k > S₂²) on [first, p2).
  const int p1 = boundary([&](double s) { return rss_.s11 * s >= rss_.s12; });
  const int p2 =
      boundary([&](double s) { return !(rss_.s22 >= rss_.s21 * s); });
  const int last = kBackoffSteps;

  // (b): min(r1, r2) = min(R1Interfered, r2_clean) never rises, so the
  // first feasible step is the case's best; R2 must decode T1 at r1.
  bisect(
      first, std::min(p1, p2) - 1, best,
      [&](int k, int) { return std::min(at(kR1Interfered, k), r2_clean_); },
      [&](int k, int j) { return at(kT1AtR2, k) < at(kR1Interfered, j); });
  // (d): the same with T1's clean rate; R1 must also decode T2 at r2.
  bisect(
      p1, p2 - 1, best,
      [&](int k, int) { return std::min(at(kR1Clean, k), r2_clean_); },
      [&](int k, int j) {
        return at(kT1AtR2, k) < at(kR1Clean, j) ||
               at(kT2AtR1, j) < r2_clean_;
      });
  // (c): min(r1, r2) = min(R1Clean, R2Interfered) with the first never
  // rising and the second never falling; R1 must decode T2 at r2.
  bisect(
      std::max(p1, p2), last, best,
      [&](int k, int j) {
        return std::min(at(kR1Clean, k), at(kR2Interfered, j));
      },
      [&](int k, int j) { return at(kT2AtR1, j) < at(kR2Interfered, k); });
}

}  // namespace

CrossLinkCase classify_cross_link(const channel::TwoLinkRss& rss) {
  const bool r1_captures = rss.s11 >= rss.s12;
  const bool r2_captures = rss.s22 >= rss.s21;
  if (r1_captures && r2_captures) return CrossLinkCase::kCaptureBoth;
  if (r1_captures) return CrossLinkCase::kSicAtR2;
  if (r2_captures) return CrossLinkCase::kSicAtR1;
  return CrossLinkCase::kSicAtBoth;
}

CrossLinkResult evaluate_cross_link(const channel::TwoLinkRss& rss,
                                    const phy::RateAdapter& adapter,
                                    double packet_bits) {
  CrossLinkOptions options;
  options.packet_bits = packet_bits;
  return evaluate_cross_link(rss, adapter, options);
}

CrossLinkResult evaluate_cross_link(const channel::TwoLinkRss& rss,
                                    const phy::RateAdapter& adapter,
                                    const CrossLinkOptions& options) {
  const double packet_bits = options.packet_bits;
  SIC_CHECK(packet_bits > 0.0);
  CrossLinkResult out;
  out.kase = classify_cross_link(rss);
  const auto n = rss.noise;
  out.serial_airtime =
      airtime_seconds(packet_bits, adapter.rate(rss.s11 / n)) +
      airtime_seconds(packet_bits, adapter.rate(rss.s22 / n));

  const ConcurrentRates rates = concurrent_rates(
      rss, adapter, out.kase, options.include_capture_concurrency);
  out.sic_feasible = rates.feasible;
  if (!rates.feasible) {
    out.concurrent_airtime = kInf;
    out.gain = 1.0;
    return out;
  }
  out.concurrent_airtime =
      std::max(airtime_seconds(packet_bits, BitsPerSecond{rates.r1}),
               airtime_seconds(packet_bits, BitsPerSecond{rates.r2}));
  out.gain = std::isfinite(out.serial_airtime)
                 ? std::max(1.0, out.serial_airtime / out.concurrent_airtime)
                 : 1.0;
  return out;
}

double cross_link_packing_gain(const channel::TwoLinkRss& rss,
                               const phy::RateAdapter& adapter,
                               double packet_bits) {
  CrossLinkOptions options;
  options.packet_bits = packet_bits;
  return cross_link_packing_gain(rss, adapter, options);
}

double cross_link_packing_gain(const channel::TwoLinkRss& rss,
                               const phy::RateAdapter& adapter,
                               const CrossLinkOptions& options) {
  const double packet_bits = options.packet_bits;
  const auto base = evaluate_cross_link(rss, adapter, options);
  if (!base.sic_feasible || !std::isfinite(base.serial_airtime)) {
    return base.gain;
  }
  const ConcurrentRates rates = concurrent_rates(
      rss, adapter, base.kase, options.include_capture_concurrency);
  const double t1 = airtime_seconds(packet_bits, BitsPerSecond{rates.r1});
  const double t2 = airtime_seconds(packet_bits, BitsPerSecond{rates.r2});
  const double t_fast = std::min(t1, t2);
  const double t_slow = std::max(t1, t2);
  const int k = std::max(1, static_cast<int>(std::floor(t_slow / t_fast)));

  const auto n = rss.noise;
  const double t1_clean =
      airtime_seconds(packet_bits, adapter.rate(rss.s11 / n));
  const double t2_clean =
      airtime_seconds(packet_bits, adapter.rate(rss.s22 / n));
  const bool link1_is_slow = t1 >= t2;
  const double t_fast_clean = link1_is_slow ? t2_clean : t1_clean;
  const double t_slow_clean = link1_is_slow ? t1_clean : t2_clean;

  const double span = std::max(t_slow, k * t_fast);
  const double packed_per_packet = span / (k + 1);
  const double serial_per_packet = (k * t_fast_clean + t_slow_clean) / (k + 1);
  return std::max(base.gain, serial_per_packet / packed_per_packet);
}

double cross_link_power_control_gain(const channel::TwoLinkRss& rss,
                                     const phy::RateAdapter& adapter,
                                     double packet_bits) {
  SIC_CHECK(packet_bits > 0.0);
  const auto n = rss.noise;
  const BitsPerSecond r1_clean = adapter.rate(rss.s11 / n);
  const BitsPerSecond r2_clean = adapter.rate(rss.s22 / n);
  const double serial = airtime_seconds(packet_bits, r1_clean) +
                        airtime_seconds(packet_bits, r2_clean);
  if (!std::isfinite(serial)) return 1.0;
  // The largest min(r1, r2) over feasible grid points; 0 while none is.
  // Full power (step 0) is searched once, in T1's direction.
  double best = 0.0;
  BackoffSearch{rss, adapter, r2_clean.value()}.run(0, best);
  BackoffSearch{rss.mirrored(), adapter, r1_clean.value()}.run(1, best);
  if (best <= 0.0) return 1.0;
  // A concurrent pair takes max(L/r1, L/r2) = L/min(r1, r2).
  return std::max(1.0, serial / airtime_seconds(packet_bits,
                                                BitsPerSecond{best}));
}

}  // namespace sic::core
