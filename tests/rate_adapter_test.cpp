#include "phy/rate_adapter.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "phy/capacity.hpp"
#include "util/rng.hpp"

namespace sic::phy {
namespace {

TEST(ShannonRateAdapter, MatchesShannonRate) {
  const ShannonRateAdapter adapter{megahertz(20.0)};
  for (const double sinr : {0.1, 1.0, 10.0, 1000.0}) {
    EXPECT_DOUBLE_EQ(adapter.rate(sinr).value(),
                     shannon_rate(megahertz(20.0), sinr).value());
  }
  EXPECT_EQ(adapter.name(), "shannon");
}

TEST(DiscreteRateAdapter, QuantizesToTable) {
  const DiscreteRateAdapter adapter{RateTable::dot11g()};
  EXPECT_DOUBLE_EQ(adapter.rate(Decibels{10.0}.linear()).megabits(), 12.0);
  EXPECT_DOUBLE_EQ(adapter.rate(Decibels{2.0}.linear()).value(), 0.0);
  EXPECT_DOUBLE_EQ(adapter.rate(0.0).value(), 0.0);
  EXPECT_EQ(adapter.name(), "802.11g");
}

TEST(RateAdapter, FeasibleIsRateAtLeast) {
  const DiscreteRateAdapter adapter{RateTable::dot11g()};
  const double sinr = Decibels{12.0}.linear();  // supports up to 18 Mbps
  EXPECT_TRUE(adapter.feasible(megabits_per_second(18.0), sinr));
  EXPECT_TRUE(adapter.feasible(megabits_per_second(6.0), sinr));
  EXPECT_FALSE(adapter.feasible(megabits_per_second(24.0), sinr));
}

TEST(RateAdapter, DiscreteNeverExceedsShannonAtRealisticSnr) {
  // The discrete table is a *practical* ladder: it must sit at or below the
  // information-theoretic ceiling wherever the ladder is defined.
  const ShannonRateAdapter shannon{megahertz(20.0)};
  const DiscreteRateAdapter discrete{RateTable::dot11g()};
  for (double db = 0.0; db <= 40.0; db += 0.5) {
    const double sinr = Decibels{db}.linear();
    EXPECT_LE(discrete.rate(sinr).value(), shannon.rate(sinr).value())
        << "at " << db << " dB";
  }
}

TEST(RateAdapter, FinerTablesCaptureMoreOfShannon) {
  // The paper's core trend: more rates ⇒ less slack left for SIC.
  const ShannonRateAdapter shannon{megahertz(20.0)};
  const DiscreteRateAdapter b{RateTable::dot11b()};
  const DiscreteRateAdapter g{RateTable::dot11g()};
  double slack_b = 0.0;
  double slack_g = 0.0;
  int samples = 0;
  for (double db = 6.0; db <= 30.0; db += 0.5) {
    const double sinr = Decibels{db}.linear();
    const double cap = shannon.rate(sinr).value();
    slack_b += (cap - b.rate(sinr).value()) / cap;
    slack_g += (cap - g.rate(sinr).value()) / cap;
    ++samples;
  }
  EXPECT_GT(slack_b / samples, slack_g / samples);
}

/// SINR inputs that stress the batched paths: dense dB grids, non-positive
/// and non-finite values, every table cutover exactly and ±1 ulp — the
/// inputs where a linear-domain shortcut that is merely *approximately*
/// equivalent to the dB comparison would diverge from the scalar path.
std::vector<double> adversarial_sinrs(const RateAdapter& adapter) {
  std::vector<double> sinrs = {0.0,
                               -1.0,
                               -1e300,
                               std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity(),
                               std::numeric_limits<double>::denorm_min(),
                               std::numeric_limits<double>::min(),
                               std::numeric_limits<double>::max(),
                               1e-300,
                               1e300};
  for (double db = -20.0; db <= 60.0; db += 0.03125) {
    sinrs.push_back(Decibels{db}.linear());
  }
  if (const auto* discrete = dynamic_cast<const DiscreteRateAdapter*>(&adapter)) {
    for (const double cut : discrete->table().linear_cutovers()) {
      sinrs.push_back(std::nextafter(cut, 0.0));
      sinrs.push_back(cut);
      sinrs.push_back(
          std::nextafter(cut, std::numeric_limits<double>::infinity()));
      // The exact dB threshold's analytic linear image, which may differ
      // from the cutover by an ulp or two — the historical scalar input.
      // Deliberately the raw conversion, not Decibels::linear(): the point
      // is to probe inputs an independent computation would produce.
      const double analytic =
          std::pow(10.0, Decibels::from_linear(cut).value() / 10.0);
      sinrs.push_back(std::nextafter(analytic, 0.0));
      sinrs.push_back(analytic);
      sinrs.push_back(
          std::nextafter(analytic, std::numeric_limits<double>::infinity()));
    }
  }
  Rng rng{317};
  for (int i = 0; i < 500; ++i) {
    sinrs.push_back(rng.uniform(-2.0, 1e4));
  }
  return sinrs;
}

TEST(RateSpan, BitIdenticalToScalarRateAcrossAdapters) {
  const ShannonRateAdapter shannon{megahertz(20.0)};
  const DiscreteRateAdapter b{RateTable::dot11b()};
  const DiscreteRateAdapter g{RateTable::dot11g()};
  const DiscreteRateAdapter n{RateTable::dot11n()};
  for (const RateAdapter* adapter :
       {static_cast<const RateAdapter*>(&shannon),
        static_cast<const RateAdapter*>(&b),
        static_cast<const RateAdapter*>(&g),
        static_cast<const RateAdapter*>(&n)}) {
    const std::vector<double> sinrs = adversarial_sinrs(*adapter);
    std::vector<BitsPerSecond> batched(sinrs.size());
    adapter->rate_span(sinrs, batched);
    const auto* discrete = dynamic_cast<const DiscreteRateAdapter*>(adapter);
    for (std::size_t i = 0; i < sinrs.size(); ++i) {
      const BitsPerSecond scalar = adapter->rate(sinrs[i]);
      // Bit-pattern equality so NaN-propagating inputs (Shannon of NaN)
      // still count as identical.
      EXPECT_EQ(std::bit_cast<std::uint64_t>(batched[i].value()),
                std::bit_cast<std::uint64_t>(scalar.value()))
          << adapter->name() << " at sinr " << sinrs[i] << " (index " << i
          << "): " << batched[i].value() << " vs " << scalar.value();
      if (discrete == nullptr) continue;
      // Both discrete calls share one linear lookup; pin it to the
      // dB-domain decision its cutovers stand in for.
      const double oracle =
          sinrs[i] <= 0.0
              ? 0.0
              : discrete->table()
                    .best_rate(Decibels::from_linear(sinrs[i]))
                    .value();
      EXPECT_EQ(std::bit_cast<std::uint64_t>(scalar.value()),
                std::bit_cast<std::uint64_t>(oracle))
          << adapter->name() << " rate() at sinr " << sinrs[i];
      EXPECT_EQ(std::bit_cast<std::uint64_t>(batched[i].value()),
                std::bit_cast<std::uint64_t>(oracle))
          << adapter->name() << " rate_span() at sinr " << sinrs[i];
    }
  }
}

TEST(RateSpan, OddLengthsExerciseUnrollRemainder) {
  // Lengths around the 4-lane unroll boundary, including 0.
  const ShannonRateAdapter shannon{megahertz(20.0)};
  for (const std::size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 255u}) {
    std::vector<double> sinrs;
    Rng rng{n + 1};
    for (std::size_t i = 0; i < n; ++i) sinrs.push_back(rng.uniform(0.0, 50.0));
    std::vector<BitsPerSecond> batched(n);
    shannon.rate_span(sinrs, batched);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(batched[i].value(), shannon.rate(sinrs[i]).value());
    }
  }
}

TEST(RateTableCutovers, AreExactDecisionBoundaries) {
  // Each cutover is the *smallest* double meeting its dB threshold: the
  // value itself meets it, one ulp below does not.
  for (const RateTable* table :
       {&RateTable::dot11b(), &RateTable::dot11g(), &RateTable::dot11n()}) {
    const auto entries = table->entries();
    const auto cuts = table->linear_cutovers();
    ASSERT_EQ(cuts.size(), entries.size());
    for (std::size_t i = 0; i < cuts.size(); ++i) {
      EXPECT_GE(Decibels::from_linear(cuts[i]), entries[i].min_sinr)
          << table->name() << " entry " << i;
      EXPECT_LT(Decibels::from_linear(std::nextafter(cuts[i], 0.0)),
                entries[i].min_sinr)
          << table->name() << " entry " << i;
    }
    // Steps: 0 bps, then the table's rates in order.
    const auto steps = table->rate_steps();
    ASSERT_EQ(steps.size(), entries.size() + 1);
    EXPECT_EQ(steps[0].value(), 0.0);
    for (std::size_t i = 0; i < entries.size(); ++i) {
      EXPECT_EQ(steps[i + 1].value(), entries[i].rate.value());
    }
  }
}

}  // namespace
}  // namespace sic::phy
