#include "core/power_control.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <sstream>

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

/// The historical exhaustive grid search: every coarse point evaluated,
/// then every fine point around the best coarse hit, strict `<` keeping the
/// first minimum. The production step-index search must reproduce its
/// result bit for bit.
PowerControlResult exhaustive_grid_reference(const UploadPairContext& ctx) {
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
  PowerControlResult best = evaluate_at_scale(1.0);
  best.applied = false;
  if (ctx.arrival.weaker.value() <= 0.0) return best;
  constexpr double kMinDb = -40.0;
  constexpr int kCoarse = 201;
  double best_db = 0.0;
  for (int i = 0; i < kCoarse; ++i) {
    const double db = kMinDb + (0.0 - kMinDb) * i / (kCoarse - 1);
    const PowerControlResult cand =
        evaluate_at_scale(Decibels{db}.linear());
    if (cand.airtime < best.airtime) {
      best = cand;
      best_db = db;
    }
  }
  constexpr int kFine = 81;
  for (int i = 0; i < kFine; ++i) {
    const double db = std::min(0.0, best_db - 0.2 + 0.4 * i / (kFine - 1));
    const PowerControlResult cand =
        evaluate_at_scale(Decibels{db}.linear());
    if (cand.airtime < best.airtime) best = cand;
  }
  return best;
}

/// Bit-pattern equality of every field of the production search and the
/// exhaustive reference.
void expect_bit_identical_to_exhaustive(const UploadPairContext& ctx) {
  const auto fast = optimize_weaker_power(ctx);
  const auto slow = exhaustive_grid_reference(ctx);
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
