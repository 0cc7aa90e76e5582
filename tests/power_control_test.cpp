#include "core/power_control.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <sstream>
#include <vector>

#include "util/rng.hpp"

namespace sic::core {
namespace {

const phy::ShannonRateAdapter kShannon{megahertz(20.0)};
constexpr Milliwatts kN0{1.0};

UploadPairContext ctx_db(double s1_db, double s2_db,
                         const phy::RateAdapter& adapter = kShannon) {
  return UploadPairContext::make(Milliwatts{Decibels{s1_db}.linear()},
                                 Milliwatts{Decibels{s2_db}.linear()}, kN0,
                                 adapter);
}

TEST(PowerControl, NeverWorseThanPlainSic) {
  for (double s1 = 6.0; s1 <= 42.0; s1 += 4.0) {
    for (double s2 = 2.0; s2 <= s1; s2 += 4.0) {
      const auto ctx = ctx_db(s1, s2);
      EXPECT_LE(power_controlled_airtime(ctx), sic_airtime(ctx) + 1e-12)
          << "s1=" << s1 << " s2=" << s2;
    }
  }
}

TEST(PowerControl, HelpsWhenRssSimilar) {
  // Section 5.2: close RSSs make the stronger client the bottleneck;
  // reducing the weaker's power lifts the pair.
  const auto ctx = ctx_db(21.0, 20.0);
  const auto result = optimize_weaker_power(ctx);
  EXPECT_TRUE(result.applied);
  EXPECT_LT(result.scale, 1.0);
  EXPECT_LT(result.airtime, sic_airtime(ctx) * 0.75);
}

TEST(PowerControl, EqualizesRatesAtOptimum) {
  const auto ctx = ctx_db(22.0, 20.0);
  const auto result = optimize_weaker_power(ctx);
  ASSERT_TRUE(result.applied);
  EXPECT_NEAR(result.rates.stronger.value(), result.rates.weaker.value(),
              result.rates.weaker.value() * 1e-6);
}

TEST(PowerControl, NoOpWhenWeakerAlreadyBottleneck) {
  // S¹ far beyond the square point: the weaker link is the bottleneck and
  // only a boost (disallowed) would help.
  const auto ctx = ctx_db(40.0, 10.0);
  const auto result = optimize_weaker_power(ctx);
  EXPECT_FALSE(result.applied);
  EXPECT_DOUBLE_EQ(result.scale, 1.0);
  EXPECT_NEAR(result.airtime, sic_airtime(ctx), 1e-12);
}

TEST(PowerControl, ClosedFormMatchesGridSearch) {
  // The Shannon fast path must agree with brute-force search over scales.
  for (const auto& [s1, s2] : {std::pair{18.0, 16.0}, std::pair{25.0, 21.0},
                               std::pair{30.0, 29.0}}) {
    const auto ctx = ctx_db(s1, s2);
    const auto fast = optimize_weaker_power(ctx);
    double best = sic_airtime(ctx);
    for (int i = 1; i <= 4000; ++i) {
      const double db = -40.0 * i / 4000.0;
      UploadPairContext scaled = ctx;
      scaled.arrival.weaker =
          ctx.arrival.weaker * Decibels{db}.linear();
      best = std::min(best, sic_airtime(scaled));
    }
    EXPECT_NEAR(fast.airtime, best, best * 1e-3) << "s1=" << s1;
    EXPECT_LE(fast.airtime, best + best * 1e-6);
  }
}

TEST(PowerControl, DiscreteAdapterNeverWorse) {
  const phy::DiscreteRateAdapter g{phy::RateTable::dot11g()};
  for (double s1 = 10.0; s1 <= 40.0; s1 += 3.0) {
    for (double s2 = 6.0; s2 <= s1; s2 += 3.0) {
      const auto ctx = ctx_db(s1, s2, g);
      const auto result = optimize_weaker_power(ctx);
      EXPECT_LE(result.airtime, sic_airtime(ctx) + 1e-12)
          << "s1=" << s1 << " s2=" << s2;
    }
  }
}

TEST(PowerControl, DiscreteAdapterFindsStepImprovement) {
  // With 802.11g steps, a small reduction of the weaker client can bump
  // the stronger client across a rate threshold. At 26/25 dB, plain SIC
  // leaves the stronger at SINR ≈ 3.5 dB (rate 0!) — power control must
  // rescue the pair.
  const phy::DiscreteRateAdapter g{phy::RateTable::dot11g()};
  const auto ctx = ctx_db(26.0, 25.0, g);
  const double plain = sic_airtime(ctx);
  const auto result = optimize_weaker_power(ctx);
  EXPECT_TRUE(std::isinf(plain));
  EXPECT_TRUE(std::isfinite(result.airtime));
  EXPECT_TRUE(result.applied);
}

constexpr double kMinDb = -40.0;
constexpr int kCoarse = 201;
constexpr int kFine = 81;

/// The exhaustive scan's grid points, computed as it computes them.
double coarse_db(int i) { return kMinDb + (0.0 - kMinDb) * i / (kCoarse - 1); }
double fine_db(double window_db, int i) {
  return std::min(0.0, window_db - 0.2 + 0.4 * i / (kFine - 1));
}

/// What the exhaustive scan passed on its way: on each grid, the first
/// index at which the stronger client's airtime reaches the weaker's (the
/// grid's size when none does), and whether the refined window reaches
/// past 0 dB, where its points are clamped to 0 dB.
struct ScanTrace {
  int coarse_crossing = kCoarse;
  int fine_crossing = kFine;
  bool clamped_window = false;
};

/// The historical exhaustive grid search: every coarse point evaluated,
/// then every fine point around the best coarse hit, strict `<` keeping the
/// first minimum. The production step-index search must reproduce its
/// result bit for bit.
PowerControlResult exhaustive_grid_reference(const UploadPairContext& ctx,
                                             ScanTrace* trace = nullptr) {
  auto evaluate_at_scale = [&](double scale) {
    UploadPairContext scaled = ctx;
    scaled.arrival.weaker = ctx.arrival.weaker * scale;
    PowerControlResult out;
    out.scale = scale;
    out.rates = sic_rates(scaled);
    out.airtime = sic_airtime(scaled);
    out.applied = scale < 1.0;
    return out;
  };
  const auto crossed = [&](const PowerControlResult& r) {
    return airtime_seconds(ctx.packet_bits, r.rates.stronger) >=
           airtime_seconds(ctx.packet_bits, r.rates.weaker);
  };
  PowerControlResult best = evaluate_at_scale(1.0);
  best.applied = false;
  if (ctx.arrival.weaker.value() <= 0.0) return best;
  double best_db = 0.0;
  for (int i = 0; i < kCoarse; ++i) {
    const double db = coarse_db(i);
    const PowerControlResult cand =
        evaluate_at_scale(Decibels{db}.linear());
    if (trace != nullptr && crossed(cand)) {
      trace->coarse_crossing = std::min(trace->coarse_crossing, i);
    }
    if (cand.airtime < best.airtime) {
      best = cand;
      best_db = db;
    }
  }
  if (trace != nullptr) trace->clamped_window = best_db + 0.2 > 0.0;
  for (int i = 0; i < kFine; ++i) {
    const PowerControlResult cand =
        evaluate_at_scale(Decibels{fine_db(best_db, i)}.linear());
    if (trace != nullptr && crossed(cand)) {
      trace->fine_crossing = std::min(trace->fine_crossing, i);
    }
    if (cand.airtime < best.airtime) best = cand;
  }
  return best;
}

/// Bit-pattern equality of every field of the production search and the
/// exhaustive reference.
void expect_bit_identical_to_exhaustive(const UploadPairContext& ctx,
                                        ScanTrace* trace = nullptr) {
  const auto fast = optimize_weaker_power(ctx);
  const auto slow = exhaustive_grid_reference(ctx, trace);
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const auto where = [&] {
    std::ostringstream os;
    os.precision(17);
    os << ctx.adapter->name() << " S1=" << ctx.arrival.stronger.value()
       << " S2=" << ctx.arrival.weaker.value()
       << " N0=" << ctx.arrival.noise.value() << " L=" << ctx.packet_bits;
    return os.str();
  };
  EXPECT_EQ(bits(fast.scale), bits(slow.scale)) << where();
  EXPECT_EQ(bits(fast.airtime), bits(slow.airtime)) << where();
  EXPECT_EQ(fast.applied, slow.applied) << where();
  EXPECT_EQ(bits(fast.rates.stronger.value()), bits(slow.rates.stronger.value()))
      << where();
  EXPECT_EQ(bits(fast.rates.weaker.value()), bits(slow.rates.weaker.value()))
      << where();
}

/// The weaker RSS w with w / noise == sinr exactly, when a few ulp of
/// adjustment around sinr * noise find one.
std::optional<Milliwatts> weaker_rss_at_sinr(double sinr, double noise) {
  double w = sinr * noise;
  for (int i = 0; i < 8 && w / noise != sinr; ++i) {
    w = std::nextafter(w, w / noise < sinr
                              ? std::numeric_limits<double>::infinity()
                              : 0.0);
  }
  if (w / noise != sinr) return std::nullopt;
  return Milliwatts{w};
}

/// The weaker RSS w whose SINR at \p scale, (w·scale)/noise as the search
/// computes it, is exactly \p sinr, when a few ulp of adjustment find one.
std::optional<Milliwatts> weaker_rss_meeting_at(double sinr, double scale,
                                                double noise) {
  const std::optional<Milliwatts> scaled = weaker_rss_at_sinr(sinr, noise);
  if (!scaled) return std::nullopt;
  const double x = scaled->value();
  double w = x / scale;
  for (int i = 0; i < 8 && w * scale != x; ++i) {
    w = std::nextafter(
        w, w * scale < x ? std::numeric_limits<double>::infinity() : 0.0);
  }
  if (w * scale != x) return std::nullopt;
  return Milliwatts{w};
}

/// The stronger RSS s whose SINR at \p scale, s/(weaker·scale + noise), is
/// exactly \p sinr, when a few ulp of adjustment find one.
std::optional<Milliwatts> stronger_rss_meeting_at(double sinr,
                                                  Milliwatts weaker,
                                                  double scale, double noise) {
  const double interference = weaker.value() * scale + noise;
  double s = sinr * interference;
  for (int i = 0; i < 8 && s / interference != sinr; ++i) {
    s = std::nextafter(s, s / interference < sinr
                              ? std::numeric_limits<double>::infinity()
                              : 0.0);
  }
  if (s / interference != sinr) return std::nullopt;
  return Milliwatts{s};
}

/// \p x moved \p ulps ulps up (or down, when negative).
double nudged(double x, int ulps) {
  for (; ulps > 0; --ulps) {
    x = std::nextafter(x, std::numeric_limits<double>::infinity());
  }
  for (; ulps < 0; ++ulps) x = std::nextafter(x, 0.0);
  return x;
}

TEST(PowerControl, PlateauSearchBitIdenticalToExhaustiveGrid) {
  const phy::DiscreteRateAdapter g{phy::RateTable::dot11g()};
  const phy::DiscreteRateAdapter b{phy::RateTable::dot11b()};
  const phy::DiscreteRateAdapter n{phy::RateTable::dot11n()};
  const phy::DiscreteRateAdapter* const adapters[] = {&g, &b, &n};
  // The default 1500-byte frame and packet sizing's 2304-byte MTU.
  const double packet_sizes[] = {12000.0, 2304.0 * 8.0};
  Rng rng{1402};
  for (const phy::DiscreteRateAdapter* adapter : adapters) {
    // A dB grid of stronger/weaker SNR pairs at unit noise.
    for (double s1 = 4.0; s1 <= 44.0; s1 += 2.0) {
      for (double s2 = 1.0; s2 <= s1; s2 += 2.0) {
        expect_bit_identical_to_exhaustive(ctx_db(s1, s2, *adapter));
      }
    }

    const phy::RateTable& table = adapter->table();
    const double base_db = table.entries().front().min_sinr.value();
    const double top_db = table.entries().back().min_sinr.value();
    const auto random_noise = [&] {
      return std::pow(10.0, rng.uniform(-15.0, 3.0));  // 18 decades of mW
    };
    const auto random_packet = [&] {
      return packet_sizes[static_cast<std::size_t>(rng.uniform_int(0, 1))];
    };

    // The weaker SINR exactly on each linear cutover and one ulp either
    // side, where a rate step changes at full power.
    for (const double cut : table.linear_cutovers()) {
      for (const double sinr :
           {std::nextafter(cut, 0.0), cut,
            std::nextafter(cut, std::numeric_limits<double>::infinity())}) {
        for (int trial = 0; trial < 12; ++trial) {
          const double noise = random_noise();
          const std::optional<Milliwatts> weaker =
              weaker_rss_at_sinr(sinr, noise);
          if (!weaker) continue;
          const Milliwatts stronger =
              *weaker * Decibels{rng.uniform(0.0, 40.0)}.linear();
          expect_bit_identical_to_exhaustive(
              UploadPairContext::make(stronger, *weaker, Milliwatts{noise},
                                      *adapter, random_packet()));
        }
      }
    }

    // A rate-step breakpoint exactly on a coarse or fine grid scale, and
    // one ulp either side: the weaker client meeting a step there (where
    // its plateau starts) or the stronger client leaving one (where the
    // crossing lies). Fine scales sit in a window whose coarse point is
    // near the breakpoint, where the search refines.
    const std::span<const double> cuts = table.linear_cutovers();
    const int top = static_cast<int>(cuts.size());
    const auto log_uniform = [&](double lo, double hi) {
      return lo * std::pow(hi / lo, rng.uniform(0.0, 1.0));
    };
    for (int trial = 0; trial < 300; ++trial) {
      const int window = rng.uniform_int(1, kCoarse - 1);
      const double scale =
          rng.uniform_int(0, 1) == 0
              ? Decibels{coarse_db(window)}.linear()
              : Decibels{fine_db(coarse_db(window), rng.uniform_int(0, 80))}
                    .linear();
      const double noise = random_noise();
      const double bits = random_packet();
      const auto check = [&](Milliwatts stronger, Milliwatts weaker) {
        if (stronger < weaker) return;
        expect_bit_identical_to_exhaustive(UploadPairContext::make(
            stronger, weaker, Milliwatts{noise}, *adapter, bits));
      };
      // Weaker role: the weaker client meets step `level` at `scale`, and
      // the stronger client drops to it somewhere above.
      const int level = rng.uniform_int(1, top - 1);
      if (const auto weaker =
              weaker_rss_meeting_at(cuts[level - 1], scale, noise)) {
        const double lo = weaker->value() * scale;
        const double hi = std::max(
            lo * 1.5, std::min(cuts[level] * noise, weaker->value()));
        const Milliwatts stronger{cuts[level] *
                                  (log_uniform(lo, hi) + noise)};
        for (const int ulps : {-1, 0, 1}) {
          check(stronger, Milliwatts{nudged(weaker->value(), ulps)});
        }
      }
      // Stronger role: the stronger client meets step `level` + 1 exactly
      // at `scale` and misses it above, with the weaker client near step
      // `level` there.
      const Milliwatts weaker{
          noise * log_uniform(cuts[level - 1], cuts[level]) / scale};
      if (const auto stronger =
              stronger_rss_meeting_at(cuts[level], weaker, scale, noise)) {
        for (const int ulps : {-1, 0, 1}) {
          check(Milliwatts{nudged(stronger->value(), ulps)}, weaker);
        }
      }
    }

    // Grid edges. (a) Both clients on the top step from -40 dB up: every
    // point has crossed, so the crossing is the first index of both
    // grids. (b) Both clients change step within 0.2 dB below full power:
    // the coarse crossing is its last index, no coarse point beats β = 1,
    // and the fine window is the one clamped at 0 dB. It finds a reduction
    // when the stronger client gains its step above the point where the
    // weaker client loses one.
    int first_index = 0;
    int last_index = 0;
    int clamped_gain = 0;
    for (int trial = 0; trial < 200; ++trial) {
      const double noise = random_noise();
      const double bits = random_packet();
      ScanTrace trace;
      const Milliwatts weaker{noise *
                              Decibels{rng.uniform(top_db + 41.0,
                                                   top_db + 55.0)}
                                  .linear()};
      const Milliwatts stronger = weaker * rng.uniform(1.0, 1.5);
      expect_bit_identical_to_exhaustive(
          UploadPairContext::make(stronger, weaker, Milliwatts{noise},
                                  *adapter, bits),
          &trace);
      first_index += trace.coarse_crossing == 0 && trace.fine_crossing == 0;

      const int level = rng.uniform_int(0, top - 2);
      const double weaker_drop_db = rng.uniform(-0.2, 0.0);
      const double stronger_rise_db = rng.uniform(-0.2, 0.0);
      const std::optional<Milliwatts> near = weaker_rss_meeting_at(
          cuts[level], Decibels{weaker_drop_db}.linear(), noise);
      if (!near) continue;
      const std::optional<Milliwatts> far = stronger_rss_meeting_at(
          cuts[level], *near, Decibels{stronger_rise_db}.linear(), noise);
      if (!far) continue;
      trace = ScanTrace{};
      const UploadPairContext ctx = UploadPairContext::make(
          *far, *near, Milliwatts{noise}, *adapter, bits);
      expect_bit_identical_to_exhaustive(ctx, &trace);
      last_index += trace.coarse_crossing == kCoarse - 1;
      clamped_gain +=
          trace.clamped_window && optimize_weaker_power(ctx).applied;
    }
    EXPECT_GT(first_index, 0) << table.name();
    EXPECT_GT(last_index, 0) << table.name();
    EXPECT_GT(clamped_gain, 0) << table.name();

    // Seeded random pairs: SNRs from 15 dB below the base rate to 40 dB
    // above the top rate, a share of them with equal RSS or a silent
    // weaker client.
    for (int trial = 0; trial < 6000; ++trial) {
      const double noise = random_noise();
      const auto rss = [&] {
        return Milliwatts{noise *
                          Decibels{rng.uniform(base_db - 15.0, top_db + 40.0)}
                              .linear()};
      };
      const Milliwatts s1 = rss();
      Milliwatts s2 = rss();
      const int shape = rng.uniform_int(0, 9);
      if (shape == 0) s2 = s1;
      if (shape == 1) s2 = Milliwatts{0.0};
      expect_bit_identical_to_exhaustive(UploadPairContext::make(
          s1, s2, Milliwatts{noise}, *adapter, random_packet()));
    }
  }
}

/// Seeded pairs at deployment distances (0.5–35 m at 15 dBm, path-loss
/// exponent 3, −94 dBm noise) alternating with pairs of uniform SNR from
/// −5 to 70 dB.
std::vector<phy::TwoSignalArrival> seeded_arrivals(int count) {
  Rng rng{2401};
  const Milliwatts noise = Dbm{-94.0}.to_milliwatts();
  const auto deployed = [&] {
    const double loss_db = 40.05 + 30.0 * std::log10(rng.uniform(0.5, 35.0));
    return Dbm{15.0 - loss_db}.to_milliwatts();
  };
  std::vector<phy::TwoSignalArrival> out;
  for (int i = 0; i < count; ++i) {
    Milliwatts a{0.0};
    Milliwatts b{0.0};
    if (i % 2 == 0) {
      a = deployed();
      b = deployed();
    } else {
      a = noise * Decibels{rng.uniform(-5.0, 70.0)}.linear();
      b = noise * Decibels{rng.uniform(-5.0, 70.0)}.linear();
    }
    out.push_back(phy::TwoSignalArrival::make(a, b, noise));
  }
  return out;
}

TEST(PowerControl, SearchRunsOnlyWhereTheStrongerClientIsTheStrictBottleneck) {
  // The search's first exit: at β = 1, a pair whose stronger client is not
  // strictly slower than the weaker one counts no search, and its result
  // is the unapplied full-power point. Equal airtimes (both clients on one
  // rate step) exit too.
  const phy::DiscreteRateAdapter g{phy::RateTable::dot11g()};
  WeakerPowerSearch search{g, 12000.0};
  int equal = 0;
  for (const phy::TwoSignalArrival& a : seeded_arrivals(4000)) {
    const UploadPairContext ctx{a, 12000.0, &g};
    const SicRatePair rates = sic_rates(ctx);
    const double a_s = airtime_seconds(12000.0, rates.stronger);
    const double a_w = airtime_seconds(12000.0, rates.weaker);
    equal += a_s == a_w;
    const std::uint64_t before = search.searches();
    const PowerControlResult result = search.optimize(a, rates);
    EXPECT_EQ(search.searches() - before, a_s > a_w ? 1u : 0u);
    if (!(a_s > a_w)) {
      EXPECT_FALSE(result.applied);
      EXPECT_EQ(result.scale, 1.0);
    }
  }
  EXPECT_GT(equal, 0);
}

TEST(PowerControl, SearchConfirmsEachBoundaryInAboutTwoProbes) {
  // The search's work, pinned: each grid probes its crossing's guessed
  // index and the one below, plus the plateau's two when the crossing
  // predicts a plateau, and walks only when rounding moves a boundary
  // across a grid point. A guess read from the wrong breakpoint walks
  // tens of points. The bounds sit ~10 % above the counts at the time of
  // writing (3.9 probes per search on 802.11b, 5.3 on 802.11g, 5.5 on
  // 802.11n); the bisections they replaced made about 25.
  const phy::DiscreteRateAdapter b{phy::RateTable::dot11b()};
  const phy::DiscreteRateAdapter g{phy::RateTable::dot11g()};
  const phy::DiscreteRateAdapter n{phy::RateTable::dot11n()};
  const std::vector<phy::TwoSignalArrival> arrivals = seeded_arrivals(20000);
  for (const auto& [adapter, bound] :
       {std::pair{&b, 4.3}, std::pair{&g, 5.8}, std::pair{&n, 6.1}}) {
    WeakerPowerSearch search{*adapter, 12000.0};
    for (const phy::TwoSignalArrival& a : arrivals) {
      const UploadPairContext ctx{a, 12000.0, adapter};
      (void)search.optimize(a, sic_rates(ctx));
    }
    ASSERT_GT(search.searches(), 1000u) << adapter->name();
    EXPECT_LE(static_cast<double>(search.probes()) /
                  static_cast<double>(search.searches()),
              bound)
        << adapter->name() << ": " << search.probes() << " probes over "
        << search.searches() << " searches";
  }
}

TEST(PowerControl, ScaleAlwaysInUnitInterval) {
  Rng rng{9};
  for (int i = 0; i < 200; ++i) {
    const double s1 = rng.uniform(0.0, 45.0);
    const double s2 = rng.uniform(0.0, s1);
    const auto result = optimize_weaker_power(ctx_db(s1, s2));
    EXPECT_GT(result.scale, 0.0);
    EXPECT_LE(result.scale, 1.0);
  }
}

}  // namespace
}  // namespace sic::core
