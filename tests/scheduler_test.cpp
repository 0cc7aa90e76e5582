#include "core/scheduler.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <vector>

#include "core/multirate.hpp"
#include "core/power_control.hpp"
#include "phy/rate_table.hpp"
#include "util/rng.hpp"

namespace sic::core {
namespace {

const phy::ShannonRateAdapter kShannon{megahertz(20.0)};
constexpr Milliwatts kN0{1.0};

channel::LinkBudget client_db(double snr_db) {
  return channel::LinkBudget{Milliwatts{Decibels{snr_db}.linear()}, kN0};
}

std::vector<channel::LinkBudget> random_clients(Rng& rng, int n) {
  std::vector<channel::LinkBudget> out;
  for (int i = 0; i < n; ++i) out.push_back(client_db(rng.uniform(6.0, 40.0)));
  return out;
}

TEST(Scheduler, EmptyAndSingleClient) {
  const SchedulerOptions options;
  EXPECT_TRUE(schedule_upload({}, kShannon, options).slots.empty());
  const std::vector<channel::LinkBudget> one{client_db(20.0)};
  const auto s = schedule_upload(one, kShannon, options);
  ASSERT_EQ(s.slots.size(), 1u);
  EXPECT_EQ(s.slots[0].first, 0);
  EXPECT_EQ(s.slots[0].second, -1);
  EXPECT_EQ(s.slots[0].plan.mode, PairMode::kSolo);
  EXPECT_NEAR(s.total_airtime, solo_airtime(one[0], kShannon, 12000.0),
              1e-15);
}

TEST(Scheduler, NeverWorseThanSerialBaseline) {
  Rng rng{42};
  for (int trial = 0; trial < 40; ++trial) {
    const auto clients = random_clients(rng, rng.uniform_int(2, 12));
    const SchedulerOptions options;
    const auto s = schedule_upload(clients, kShannon, options);
    const double serial = serial_upload_airtime(clients, kShannon, 12000.0);
    EXPECT_LE(s.total_airtime, serial + serial * 1e-12)
        << "trial=" << trial << " n=" << clients.size();
  }
}

TEST(Scheduler, EveryClientAppearsExactlyOnce) {
  Rng rng{43};
  for (int trial = 0; trial < 30; ++trial) {
    const int n = rng.uniform_int(2, 11);
    const auto clients = random_clients(rng, n);
    const auto s = schedule_upload(clients, kShannon, {});
    std::vector<int> count(static_cast<std::size_t>(n), 0);
    for (const auto& slot : s.slots) {
      ++count[static_cast<std::size_t>(slot.first)];
      if (slot.second >= 0) ++count[static_cast<std::size_t>(slot.second)];
    }
    for (const int c : count) EXPECT_EQ(c, 1);
  }
}

TEST(Scheduler, OddCountProducesExactlyOneSoloOrNone) {
  Rng rng{44};
  const auto clients = random_clients(rng, 7);
  const auto s = schedule_upload(clients, kShannon, {});
  int solos = 0;
  for (const auto& slot : s.slots) {
    if (slot.second < 0) ++solos;
  }
  EXPECT_EQ(solos, 1);
  EXPECT_EQ(s.slots.size(), 4u);
}

TEST(Scheduler, TotalAirtimeIsSumOfSlots) {
  Rng rng{45};
  const auto clients = random_clients(rng, 8);
  const auto s = schedule_upload(clients, kShannon, {});
  double sum = 0.0;
  for (const auto& slot : s.slots) sum += slot.plan.airtime;
  EXPECT_NEAR(sum, s.total_airtime, sum * 1e-12);
}

TEST(Scheduler, BlossomAtLeastAsGoodAsGreedy) {
  Rng rng{46};
  for (int trial = 0; trial < 30; ++trial) {
    const auto clients = random_clients(rng, 2 * rng.uniform_int(2, 7));
    SchedulerOptions blossom;
    SchedulerOptions greedy;
    greedy.pairing = SchedulerOptions::Pairing::kGreedy;
    const double tb = schedule_upload(clients, kShannon, blossom).total_airtime;
    const double tg = schedule_upload(clients, kShannon, greedy).total_airtime;
    EXPECT_LE(tb, tg + tg * 1e-12) << "trial=" << trial;
  }
}

TEST(Scheduler, TechniquesOnlyImproveTotal) {
  Rng rng{47};
  for (int trial = 0; trial < 25; ++trial) {
    const auto clients = random_clients(rng, rng.uniform_int(3, 10));
    SchedulerOptions base;
    SchedulerOptions pc = base;
    pc.enable_power_control = true;
    SchedulerOptions mr = base;
    mr.enable_multirate = true;
    const double t0 = schedule_upload(clients, kShannon, base).total_airtime;
    const double t1 = schedule_upload(clients, kShannon, pc).total_airtime;
    const double t2 = schedule_upload(clients, kShannon, mr).total_airtime;
    EXPECT_LE(t1, t0 + t0 * 1e-12);
    EXPECT_LE(t2, t0 + t0 * 1e-12);
  }
}

TEST(Scheduler, BestPairPlanPicksWinningMode) {
  // Similar RSS: power control should win when enabled.
  const auto a = client_db(21.0);
  const auto b = client_db(20.0);
  SchedulerOptions options;
  options.enable_power_control = true;
  const auto plan = best_pair_plan(a, b, kShannon, options);
  EXPECT_EQ(plan.mode, PairMode::kSicPowerControl);
  EXPECT_LT(plan.weaker_power_scale, 1.0);

  // Past the square-law ridge the weaker client is the bottleneck: power
  // reduction cannot help, so plain SIC wins.
  const auto plan2 =
      best_pair_plan(client_db(30.0), client_db(12.0), kShannon, options);
  EXPECT_EQ(plan2.mode, PairMode::kSic);
}

TEST(Scheduler, SerialModeChosenWhenSicLoses) {
  // Two nearly equal strong clients without any technique: concurrent SIC
  // is slower than serial, so the pair plan must fall back.
  const auto plan = best_pair_plan(client_db(35.0), client_db(34.5), kShannon,
                                   SchedulerOptions{});
  EXPECT_EQ(plan.mode, PairMode::kSerial);
  // A tie never moves the plan: with one client below 802.11g's base rate,
  // serial and every concurrent candidate cost +inf, so the pair stays
  // serial.
  const phy::DiscreteRateAdapter dot11g{phy::RateTable::dot11g()};
  SchedulerOptions all;
  all.enable_power_control = true;
  all.enable_multirate = true;
  const auto dead =
      best_pair_plan(client_db(20.0), client_db(-3.0), dot11g, all);
  EXPECT_EQ(dead.mode, PairMode::kSerial);
  EXPECT_TRUE(std::isinf(dead.airtime));
}

TEST(Scheduler, PairPlanMatchesTechniqueAirtimes) {
  const auto a = client_db(26.0);
  const auto b = client_db(13.0);
  SchedulerOptions options;
  options.enable_multirate = true;
  const auto plan = best_pair_plan(a, b, kShannon, options);
  const auto ctx =
      UploadPairContext::make(a.rss, b.rss, kN0, kShannon, 12000.0);
  const double expected = std::min(
      {solo_airtime(a, kShannon, 12000.0) + solo_airtime(b, kShannon, 12000.0),
       sic_airtime(ctx), multirate_airtime(ctx)});
  EXPECT_NEAR(plan.airtime, expected, expected * 1e-12);
}

TEST(Scheduler, ZeroAdmissionMarginIsExactlyTheDefaultPlan) {
  // The margin derate multiplier is exactly 1.0 at 0 dB, so the plan must
  // be bit-identical to one computed without the option.
  const auto a = client_db(24.0);
  const auto b = client_db(12.0);
  SchedulerOptions margined;
  margined.admission_margin_db = Decibels{0.0};
  const auto base = best_pair_plan(a, b, kShannon, SchedulerOptions{});
  const auto with = best_pair_plan(a, b, kShannon, margined);
  EXPECT_EQ(base.mode, with.mode);
  EXPECT_EQ(base.airtime, with.airtime);  // exact, not near
}

TEST(Scheduler, AdmissionMarginDeratesConcurrentNotSerial) {
  // A margined concurrent plan is costed on the derated channel, so its
  // airtime can only grow with the margin; the serial baseline is
  // unmargined and caps the damage.
  const auto a = client_db(24.0);
  const auto b = client_db(12.0);
  SchedulerOptions options;
  const auto base = best_pair_plan(a, b, kShannon, options);
  ASSERT_EQ(base.mode, PairMode::kSic);
  options.admission_margin_db = Decibels{3.0};
  const auto margined = best_pair_plan(a, b, kShannon, options);
  EXPECT_GE(margined.airtime, base.airtime);
  const double serial = solo_airtime(a, kShannon, 12000.0) +
                        solo_airtime(b, kShannon, 12000.0);
  EXPECT_LE(margined.airtime, serial * (1.0 + 1e-12));
}

TEST(Scheduler, LargeAdmissionMarginFallsBackToSerial) {
  // A pair that wins under SIC at 0 dB margin stops being admitted as
  // concurrent once the required headroom is big enough.
  const auto a = client_db(24.0);
  const auto b = client_db(12.0);
  SchedulerOptions options;
  ASSERT_EQ(best_pair_plan(a, b, kShannon, options).mode, PairMode::kSic);
  options.admission_margin_db = Decibels{20.0};
  EXPECT_EQ(best_pair_plan(a, b, kShannon, options).mode, PairMode::kSerial);
}

TEST(Scheduler, AdmissionMarginRecordedOnSchedule) {
  const std::vector<channel::LinkBudget> clients{client_db(24.0),
                                                 client_db(12.0)};
  SchedulerOptions options;
  options.admission_margin_db = Decibels{3.0};
  const auto schedule = schedule_upload(clients, kShannon, options);
  EXPECT_EQ(schedule.admission_margin_db.value(), 3.0);
  EXPECT_EQ(schedule_upload({}, kShannon, options).admission_margin_db.value(),
            3.0);
}

TEST(Scheduler, NegativeAdmissionMarginRejected) {
  SchedulerOptions options;
  options.admission_margin_db = Decibels{-1.0};
  EXPECT_THROW(
      (void)best_pair_plan(client_db(24.0), client_db(12.0), kShannon, options),
      std::logic_error);
}

TEST(Scheduler, MismatchedNoiseFloorsRejected) {
  const channel::LinkBudget a{Milliwatts{10.0}, Milliwatts{1.0}};
  const channel::LinkBudget b{Milliwatts{10.0}, Milliwatts{2.0}};
  EXPECT_THROW((void)best_pair_plan(a, b, kShannon, {}), std::logic_error);
}

TEST(Scheduler, MatchesBruteForceOnSmallInstances) {
  // Exhaustive check of the full pipeline (pair costs + matching) against
  // enumerating all pairings of 4 and 6 clients.
  Rng rng{48};
  const auto all_pairings_cost = [&](const std::vector<channel::LinkBudget>&
                                         clients,
                                     const SchedulerOptions& options) {
    const int n = static_cast<int>(clients.size());
    std::vector<int> idx(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) idx[static_cast<std::size_t>(i)] = i;
    double best = 1e300;
    // Enumerate perfect matchings recursively.
    const std::function<void(std::vector<int>&, double)> rec =
        [&](std::vector<int>& rest, double acc) {
          if (rest.empty()) {
            best = std::min(best, acc);
            return;
          }
          const int a = rest.front();
          for (std::size_t k = 1; k < rest.size(); ++k) {
            const int b = rest[k];
            std::vector<int> next;
            for (std::size_t m = 1; m < rest.size(); ++m) {
              if (m != k) next.push_back(rest[m]);
            }
            const double cost =
                best_pair_plan(clients[static_cast<std::size_t>(a)],
                               clients[static_cast<std::size_t>(b)], kShannon,
                               options)
                    .airtime;
            rec(next, acc + cost);
          }
        };
    rec(idx, 0.0);
    return best;
  };

  for (const int n : {4, 6}) {
    for (int trial = 0; trial < 10; ++trial) {
      const auto clients = random_clients(rng, n);
      SchedulerOptions options;
      options.enable_power_control = true;
      const auto s = schedule_upload(clients, kShannon, options);
      const double brute = all_pairings_cost(clients, options);
      EXPECT_NEAR(s.total_airtime, brute, brute * 1e-9)
          << "n=" << n << " trial=" << trial;
    }
  }
}

TEST(Scheduler, SlotsSortedLongestFirst) {
  Rng rng{49};
  const auto clients = random_clients(rng, 9);
  const auto s = schedule_upload(clients, kShannon, {});
  for (std::size_t i = 1; i < s.slots.size(); ++i) {
    EXPECT_GE(s.slots[i - 1].plan.airtime, s.slots[i].plan.airtime);
  }
}

}  // namespace
}  // namespace sic::core
