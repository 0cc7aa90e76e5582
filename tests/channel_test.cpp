#include <gtest/gtest.h>

#include <cmath>

#include "channel/link.hpp"
#include "channel/pathloss.hpp"
#include "channel/shadowing.hpp"
#include "channel/two_link_rss.hpp"

namespace sic::channel {
namespace {

TEST(LogDistancePathLoss, FreeSpaceReferenceAt24Ghz) {
  const auto model = LogDistancePathLoss::for_carrier(2.0);
  EXPECT_NEAR(model.loss(1.0).value(), 40.05, 0.1);  // classic 40 dB @ 1 m
}

TEST(LogDistancePathLoss, TenXDistanceCostsTenAlphaDb) {
  const auto model = LogDistancePathLoss::for_carrier(3.5);
  const double l10 = model.loss(10.0).value();
  const double l100 = model.loss(100.0).value();
  EXPECT_NEAR(l100 - l10, 35.0, 1e-9);
}

TEST(LogDistancePathLoss, ClampsBelowReferenceDistance) {
  const auto model = LogDistancePathLoss::for_carrier(3.0);
  EXPECT_DOUBLE_EQ(model.loss(0.01).value(), model.loss(1.0).value());
}

TEST(LogDistancePathLoss, ReceivedPower) {
  const auto model = LogDistancePathLoss::for_carrier(3.0);
  const Dbm rx = model.received_power(Dbm{20.0}, 10.0);
  EXPECT_NEAR(rx.value(), 20.0 - model.loss(10.0).value(), 1e-9);
}

TEST(LogDistancePathLoss, RejectsBadParameters) {
  EXPECT_THROW(LogDistancePathLoss(-1.0, Decibels{40.0}), std::logic_error);
  EXPECT_THROW(LogDistancePathLoss(3.0, Decibels{40.0}, 0.0),
               std::logic_error);
}

TEST(NormalizedPathLoss, PowerLaw) {
  const NormalizedPathLoss model{4.0};
  EXPECT_DOUBLE_EQ(model.received_power(1.0).value(), 1.0);
  EXPECT_DOUBLE_EQ(model.received_power(2.0).value(), 1.0 / 16.0);
  EXPECT_DOUBLE_EQ(model.received_power(10.0).value(), 1e-4);
}

TEST(NormalizedPathLoss, ClampsInsideOneMeter) {
  const NormalizedPathLoss model{4.0};
  EXPECT_DOUBLE_EQ(model.received_power(0.1).value(), 1.0);
}

TEST(Shadowing, ZeroMeanAndConfiguredSigma) {
  const LogNormalShadowing shadow{Decibels{6.0}};
  Rng rng{5};
  double sum = 0.0;
  double sum2 = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const double x = shadow.sample(rng).value();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.15);
  EXPECT_NEAR(std::sqrt(sum2 / kN), 6.0, 0.15);
}

TEST(LinkBudget, SnrAndSinr) {
  const LinkBudget link{Milliwatts{100.0}, Milliwatts{1.0}};
  EXPECT_DOUBLE_EQ(link.snr(), 100.0);
  EXPECT_DOUBLE_EQ(link.sinr_against(Milliwatts{9.0}), 10.0);
}

TEST(LinkBudget, FromDbConstructors) {
  const LinkBudget a = LinkBudget::from_db(Dbm{-60.0}, Dbm{-90.0});
  EXPECT_NEAR(Decibels::from_linear(a.snr()).value(), 30.0, 1e-9);
  const LinkBudget b = LinkBudget::from_snr_db(Decibels{25.0});
  EXPECT_NEAR(Decibels::from_linear(b.snr()).value(), 25.0, 1e-9);
  EXPECT_DOUBLE_EQ(b.noise.value(), 1.0);
}

TEST(TwoLinkRss, MirrorSwapsRoles) {
  const TwoLinkRss rss{Milliwatts{1.0}, Milliwatts{2.0}, Milliwatts{3.0},
                       Milliwatts{4.0}, Milliwatts{0.5}};
  const TwoLinkRss m = rss.mirrored();
  EXPECT_DOUBLE_EQ(m.s11.value(), 4.0);
  EXPECT_DOUBLE_EQ(m.s12.value(), 3.0);
  EXPECT_DOUBLE_EQ(m.s21.value(), 2.0);
  EXPECT_DOUBLE_EQ(m.s22.value(), 1.0);
  EXPECT_DOUBLE_EQ(m.noise.value(), 0.5);
  // Mirroring twice is the identity.
  const TwoLinkRss mm = m.mirrored();
  EXPECT_DOUBLE_EQ(mm.s11.value(), rss.s11.value());
  EXPECT_DOUBLE_EQ(mm.s12.value(), rss.s12.value());
}

}  // namespace
}  // namespace sic::channel
