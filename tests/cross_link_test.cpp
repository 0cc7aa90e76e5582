#include "core/cross_link.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>

#include "phy/rate_table.hpp"
#include "topology/samplers.hpp"
#include "util/rng.hpp"

namespace sic::core {
namespace {

const phy::ShannonRateAdapter kShannon{megahertz(20.0)};

channel::TwoLinkRss rss_db(double s11, double s12, double s21, double s22) {
  return channel::TwoLinkRss{
      Milliwatts{Decibels{s11}.linear()}, Milliwatts{Decibels{s12}.linear()},
      Milliwatts{Decibels{s21}.linear()}, Milliwatts{Decibels{s22}.linear()},
      Milliwatts{1.0}};
}

TEST(CrossLink, ClassificationCoversFigFiveCases) {
  EXPECT_EQ(classify_cross_link(rss_db(30, 10, 10, 30)),
            CrossLinkCase::kCaptureBoth);  // (a)
  EXPECT_EQ(classify_cross_link(rss_db(30, 10, 35, 20)),
            CrossLinkCase::kSicAtR2);  // (b): R2 hears T1 louder
  EXPECT_EQ(classify_cross_link(rss_db(10, 30, 10, 30)),
            CrossLinkCase::kSicAtR1);  // (c)
  EXPECT_EQ(classify_cross_link(rss_db(10, 30, 35, 20)),
            CrossLinkCase::kSicAtBoth);  // (d)
}

TEST(CrossLink, CaptureCaseHasNoSicGain) {
  const auto r = evaluate_cross_link(rss_db(30, 10, 10, 30), kShannon);
  EXPECT_EQ(r.kase, CrossLinkCase::kCaptureBoth);
  EXPECT_FALSE(r.sic_feasible);
  EXPECT_DOUBLE_EQ(r.gain, 1.0);
  EXPECT_TRUE(std::isinf(r.concurrent_airtime));
}

TEST(CrossLink, CaseBFeasibilityCondition) {
  // Paper: SIC feasible at R2 iff S₂¹/(S₂²+N₀) > S₁¹/(S₁²+N₀).
  // Feasible example: T1 strong at R1 (30 vs 10) and very strong at R2.
  const auto feasible = evaluate_cross_link(rss_db(30, 10, 45, 25), kShannon);
  EXPECT_EQ(feasible.kase, CrossLinkCase::kSicAtR2);
  EXPECT_TRUE(feasible.sic_feasible);
  // Infeasible: T1 barely louder than T2 at R2.
  const auto infeasible =
      evaluate_cross_link(rss_db(30, 10, 26, 25), kShannon);
  EXPECT_EQ(infeasible.kase, CrossLinkCase::kSicAtR2);
  EXPECT_FALSE(infeasible.sic_feasible);
  EXPECT_DOUBLE_EQ(infeasible.gain, 1.0);
}

TEST(CrossLink, CaseCMirrorsCaseB) {
  const auto rss = rss_db(30, 10, 45, 25);
  const auto b = evaluate_cross_link(rss, kShannon);
  const auto c = evaluate_cross_link(rss.mirrored(), kShannon);
  EXPECT_EQ(c.kase, CrossLinkCase::kSicAtR1);
  EXPECT_EQ(b.sic_feasible, c.sic_feasible);
  EXPECT_NEAR(b.gain, c.gain, 1e-12);
  EXPECT_NEAR(b.concurrent_airtime, c.concurrent_airtime, 1e-15);
}

TEST(CrossLink, CaseDNeedsBothConditions) {
  // Fig. 5d: each receiver closer to the foreign transmitter. Make the
  // cross gains huge so both conditions hold: S₂¹/(S₂²+1) > S₁¹ and
  // S₁²/(S₁¹+1) > S₂² (linear, noise-normalized).
  // s11=6dB (4x), s22=6dB; cross RSS 40 dB (1e4).
  const auto feasible = evaluate_cross_link(rss_db(6, 40, 40, 6), kShannon);
  EXPECT_EQ(feasible.kase, CrossLinkCase::kSicAtBoth);
  EXPECT_TRUE(feasible.sic_feasible);
  EXPECT_GT(feasible.gain, 1.0);
  // Weaken one cross link: the asymmetric condition fails.
  const auto infeasible = evaluate_cross_link(rss_db(6, 40, 8, 6), kShannon);
  EXPECT_EQ(infeasible.kase, CrossLinkCase::kSicAtBoth);
  EXPECT_FALSE(infeasible.sic_feasible);
}

TEST(CrossLink, CaseDConcurrentIsEquation9) {
  const auto rss = rss_db(6, 40, 40, 6);
  const auto r = evaluate_cross_link(rss, kShannon, 12000.0);
  const double r1 = kShannon.rate(rss.s11 / rss.noise).value();
  const double r2 = kShannon.rate(rss.s22 / rss.noise).value();
  EXPECT_NEAR(r.concurrent_airtime,
              std::max(12000.0 / r1, 12000.0 / r2), 1e-12);
  // And Z₋ is the sum of the same two terms.
  EXPECT_NEAR(r.serial_airtime, 12000.0 / r1 + 12000.0 / r2, 1e-12);
}

TEST(CrossLink, GainAlwaysAtLeastOne) {
  Rng rng{12};
  for (int i = 0; i < 2000; ++i) {
    const auto rss = rss_db(rng.uniform(0.0, 45.0), rng.uniform(0.0, 45.0),
                            rng.uniform(0.0, 45.0), rng.uniform(0.0, 45.0));
    const auto r = evaluate_cross_link(rss, kShannon);
    EXPECT_GE(r.gain, 1.0);
    if (!r.sic_feasible) {
      EXPECT_DOUBLE_EQ(r.gain, 1.0);
    }
  }
}

TEST(CrossLink, SerialAirtimeUsesCleanRates) {
  const auto rss = rss_db(20, 5, 5, 25);
  const auto r = evaluate_cross_link(rss, kShannon, 6000.0);
  const double expect =
      6000.0 / kShannon.rate(Decibels{20.0}.linear()).value() +
      6000.0 / kShannon.rate(Decibels{25.0}.linear()).value();
  EXPECT_NEAR(r.serial_airtime, expect, 1e-12);
}

TEST(CrossLink, PackingGainDominatesPlainGain) {
  Rng rng{13};
  for (int i = 0; i < 500; ++i) {
    const auto rss = rss_db(rng.uniform(0.0, 45.0), rng.uniform(0.0, 45.0),
                            rng.uniform(0.0, 45.0), rng.uniform(0.0, 45.0));
    const double plain = evaluate_cross_link(rss, kShannon).gain;
    const double packed = cross_link_packing_gain(rss, kShannon);
    EXPECT_GE(packed + 1e-12, plain);
  }
}

TEST(CrossLink, SectionThreeTwoWorkedExample) {
  // The 40/50/30 dB example of Section 3.2 (case c: interference stronger
  // at R1): T2→R2 at the rate of a 30 dB link is NOT decodable at R1
  // (SINR 10 dB), so concurrent SIC for the pair is infeasible.
  const auto rss = rss_db(40, 50, /*s21: T1 at R2, weak*/ 5, 30);
  const auto r = evaluate_cross_link(rss, kShannon);
  EXPECT_EQ(r.kase, CrossLinkCase::kSicAtR1);
  EXPECT_FALSE(r.sic_feasible);
}

/// The reference for cross_link_power_control_gain, which must return its
/// value bit for bit: the exhaustive scan of Fig. 11b's power-control grid.
/// Full power, then every 0.25 dB step down to -20 dB of either
/// transmitter, each through evaluate_cross_link.
double exhaustive_power_control_gain(const channel::TwoLinkRss& rss,
                                     const phy::RateAdapter& adapter,
                                     double packet_bits) {
  const auto scale_t1 = [](channel::TwoLinkRss r, double scale) {
    r.s11 = r.s11 * scale;
    r.s21 = r.s21 * scale;
    return r;
  };
  const double serial =
      evaluate_cross_link(rss, adapter, packet_bits).serial_airtime;
  double best = evaluate_cross_link(rss, adapter, packet_bits).gain;
  if (!std::isfinite(serial)) return best;
  constexpr int kSteps = 81;
  for (int tx = 0; tx < 2; ++tx) {
    for (int i = 1; i < kSteps; ++i) {
      const double scale = Decibels{-20.0 * i / (kSteps - 1)}.linear();
      const channel::TwoLinkRss scaled =
          tx == 0 ? scale_t1(rss, scale)
                  : scale_t1(rss.mirrored(), scale).mirrored();
      const auto res = evaluate_cross_link(scaled, adapter, packet_bits);
      if (std::isfinite(res.concurrent_airtime) &&
          res.concurrent_airtime > 0.0) {
        best = std::max(best, std::max(1.0, serial / res.concurrent_airtime));
      }
    }
  }
  return best;
}

void expect_search_matches_exhaustive(const channel::TwoLinkRss& rss,
                                      const phy::RateAdapter& adapter,
                                      double packet_bits) {
  const double fast = cross_link_power_control_gain(rss, adapter, packet_bits);
  const double slow = exhaustive_power_control_gain(rss, adapter, packet_bits);
  if (std::bit_cast<std::uint64_t>(fast) == std::bit_cast<std::uint64_t>(slow)) {
    return;
  }
  std::ostringstream os;
  os.precision(17);
  os << adapter.name() << " L=" << packet_bits << " S11=" << rss.s11.value()
     << " S12=" << rss.s12.value() << " S21=" << rss.s21.value()
     << " S22=" << rss.s22.value() << " N0=" << rss.noise.value()
     << ": search " << fast << ", scan " << slow;
  ADD_FAILURE() << os.str();
}

/// Counts rate() calls on the way to another adapter.
class CountingAdapter final : public phy::RateAdapter {
 public:
  explicit CountingAdapter(const phy::RateAdapter& inner) : inner_(inner) {}
  [[nodiscard]] BitsPerSecond rate(double sinr_linear) const override {
    ++calls_;
    return inner_.rate(sinr_linear);
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] long calls() const { return calls_; }

 private:
  const phy::RateAdapter& inner_;
  mutable long calls_ = 0;
};

struct PowerControlCase {
  const phy::ShannonRateAdapter shannon{megahertz(20.0)};
  const phy::DiscreteRateAdapter b{phy::RateTable::dot11b()};
  const phy::DiscreteRateAdapter g{phy::RateTable::dot11g()};
  const phy::DiscreteRateAdapter n{phy::RateTable::dot11n()};
  const phy::RateAdapter* const adapters[4] = {&shannon, &b, &g, &n};
  /// The default 1500-byte frame and packet sizing's 2304-byte MTU.
  const double packet_sizes[2] = {12000.0, 2304.0 * 8.0};
};

TEST(CrossLink, PowerControlSearchMatchesExhaustiveGridOnSampledPairs) {
  const PowerControlCase pc;
  for (const phy::RateAdapter* adapter : pc.adapters) {
    // Fig. 11b's own draws, at its range and at a tighter and a looser one.
    for (const double range_m : {20.0, 40.0, 80.0}) {
      topology::SamplerConfig config;
      config.range_m = range_m;
      for (std::uint64_t t = 0; t < 1200; ++t) {
        Rng rng = Rng::at(1102, t);
        const auto sample = topology::sample_two_link(rng, config);
        expect_search_matches_exhaustive(sample.rss, *adapter,
                                         pc.packet_sizes[t % 2]);
      }
    }
  }
}

TEST(CrossLink, PowerControlSearchMatchesExhaustiveGridOnAdversarialPairs) {
  const PowerControlCase pc;
  Rng rng{1402};
  const auto scale_at = [](int k) { return Decibels{-20.0 * k / 80}.linear(); };
  for (const phy::RateAdapter* adapter : pc.adapters) {
    const auto packet = [&] {
      return pc.packet_sizes[static_cast<std::size_t>(rng.uniform_int(0, 1))];
    };
    for (int trial = 0; trial < 9000; ++trial) {
      // RSS from 15 dB below to 60 dB above a noise floor that spans 14
      // decades of mW.
      const double noise = std::pow(10.0, rng.uniform(-14.0, 0.0));
      const auto rss_draw = [&] {
        return Milliwatts{noise * Decibels{rng.uniform(-15.0, 60.0)}.linear()};
      };
      channel::TwoLinkRss rss{rss_draw(), rss_draw(), rss_draw(), rss_draw(),
                              Milliwatts{noise}};
      Milliwatts* const entry[4] = {&rss.s11, &rss.s12, &rss.s21, &rss.s22};
      const int shape = rng.uniform_int(0, 9);
      if (shape == 0) {
        // Equal RSS: a pair of entries, or all four.
        const int a = rng.uniform_int(0, 3);
        const int b = rng.uniform_int(0, 3);
        *entry[b] = *entry[a];
        if (rng.chance(0.25)) rss.s12 = rss.s21 = rss.s22 = rss.s11;
      } else if (shape == 1) {
        // Silent entries.
        *entry[rng.uniform_int(0, 3)] = Milliwatts{0.0};
        if (rng.chance(0.3)) *entry[rng.uniform_int(0, 3)] = Milliwatts{0.0};
      } else if (shape <= 5) {
        // A capture test exactly on grid step k, or one ulp to either
        // side: S12 vs S11·s, S22 vs S21·s, and the mirrored pair.
        const double s = scale_at(rng.uniform_int(1, 80));
        const int side = rng.uniform_int(-1, 1);
        const auto nudge = [&](Milliwatts v) {
          const double x = v.value();
          if (side < 0) return Milliwatts{std::nextafter(x, 0.0)};
          if (side > 0) {
            return Milliwatts{
                std::nextafter(x, std::numeric_limits<double>::infinity())};
          }
          return v;
        };
        switch (shape) {
          case 2: rss.s12 = nudge(rss.s11 * s); break;
          case 3: rss.s22 = nudge(rss.s21 * s); break;
          case 4: rss.s21 = nudge(rss.s22 * s); break;
          default: rss.s11 = nudge(rss.s12 * s); break;
        }
      }
      expect_search_matches_exhaustive(rss, *adapter, packet());
    }
  }
}

TEST(CrossLink, PowerControlSearchEvaluatesFewGridPoints) {
  // The exhaustive scan makes ~600 rate() calls per pair; the search must
  // stay an order of magnitude below it on Fig. 11b's draws.
  const PowerControlCase pc;
  for (const phy::RateAdapter* adapter : pc.adapters) {
    const CountingAdapter counting{*adapter};
    constexpr int kDraws = 2000;
    for (std::uint64_t t = 0; t < kDraws; ++t) {
      Rng rng = Rng::at(7, t);
      const auto sample =
          topology::sample_two_link(rng, topology::SamplerConfig{});
      (void)cross_link_power_control_gain(sample.rss, counting);
    }
    EXPECT_LT(counting.calls(), 40L * kDraws) << adapter->name();
  }
}

}  // namespace
}  // namespace sic::core
