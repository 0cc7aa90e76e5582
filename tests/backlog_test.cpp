#include "core/backlog.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "core/upload_pair.hpp"
#include "util/rng.hpp"

namespace sic::core {
namespace {

const phy::ShannonRateAdapter kShannon{megahertz(20.0)};
constexpr Milliwatts kN0{1.0};

BacklogClient client_db(double snr_db, int packets) {
  return BacklogClient{
      channel::LinkBudget{Milliwatts{Decibels{snr_db}.linear()}, kN0},
      packets};
}

TEST(BacklogDrain, SoloDrainScalesLinearly) {
  const auto c1 = client_db(20.0, 1);
  const auto c5 = client_db(20.0, 5);
  EXPECT_NEAR(solo_drain_airtime(c5, kShannon, 12000.0),
              5.0 * solo_drain_airtime(c1, kShannon, 12000.0), 1e-15);
  EXPECT_DOUBLE_EQ(solo_drain_airtime(client_db(20.0, 0), kShannon, 12000.0),
                   0.0);
}

TEST(BacklogDrain, SingleFrameEachMatchesPairPlan) {
  // With one packet per client the backlog machinery must agree with the
  // single-packet algebra.
  const auto a = client_db(24.0, 1);
  const auto b = client_db(12.0, 1);
  BacklogOptions options;
  options.enable_packing = false;
  const auto plan = best_drain_plan(a, b, kShannon, options);
  const auto ctx =
      UploadPairContext::make(a.link.rss, b.link.rss, kN0, kShannon, 12000.0);
  const double expect = std::min(serial_airtime(ctx), sic_airtime(ctx));
  EXPECT_NEAR(plan.airtime, expect, expect * 1e-12);
}

TEST(BacklogDrain, DisciplinesOrdered) {
  // Packed trains <= SIC rounds <= serial whenever SIC is feasible, since
  // each discipline generalizes the previous one's schedule space here.
  Rng rng{3};
  for (int trial = 0; trial < 200; ++trial) {
    const auto a = client_db(rng.uniform(8.0, 40.0), rng.uniform_int(1, 10));
    const auto b = client_db(rng.uniform(4.0, 35.0), rng.uniform_int(1, 10));
    BacklogOptions none;
    none.enable_packing = false;
    const auto without = best_drain_plan(a, b, kShannon, none);
    BacklogOptions with;
    const auto packed = best_drain_plan(a, b, kShannon, with);
    EXPECT_LE(packed.airtime, without.airtime + without.airtime * 1e-12)
        << "trial " << trial;
    const double serial = solo_drain_airtime(a, kShannon, 12000.0) +
                          solo_drain_airtime(b, kShannon, 12000.0);
    EXPECT_LE(without.airtime, serial + serial * 1e-12);
  }
}

TEST(BacklogDrain, PackingShinesWithAsymmetricQueues) {
  // A deep queue on the concurrent-fast client: trains ride the slow
  // client's long packets. Versus *lockstep* SIC rounds the saving is
  // large (the fast queue would otherwise drain serially); versus the best
  // non-packing discipline the saving is the slow client's clean airtime
  // per train.
  const auto slow = client_db(21.0, 2);    // similar RSS ⇒ slow under SIC
  const auto fast = client_db(20.0, 12);
  BacklogOptions options;
  const auto plan = best_drain_plan(slow, fast, kShannon, options);
  EXPECT_EQ(plan.mode, DrainMode::kPackedTrains);

  // Explicit lockstep-rounds time: min(q) concurrent rounds + leftovers.
  const auto ctx = UploadPairContext::make(slow.link.rss, fast.link.rss, kN0,
                                           kShannon, 12000.0);
  const double lockstep =
      2.0 * sic_airtime(ctx) +
      10.0 * solo_airtime(fast.link, kShannon, 12000.0);
  EXPECT_LT(plan.airtime, lockstep * 0.8);

  // And strictly better than the best non-packing discipline.
  BacklogOptions no_pack;
  no_pack.enable_packing = false;
  const auto without = best_drain_plan(slow, fast, kShannon, no_pack);
  EXPECT_LT(plan.airtime, without.airtime);
}

TEST(BacklogDrain, TrainAccountingExactOnSmallCase) {
  // slow client: 1 packet, fast: 6 packets, t_slow/t_fast just above 6: a
  // single full train carries everything and beats the serial drain by the
  // slow client's clean airtime.
  const auto a = client_db(20.5, 1);  // stronger, slow under SIC
  const auto b = client_db(20.0, 6);
  const auto ctx =
      UploadPairContext::make(a.link.rss, b.link.rss, kN0, kShannon, 12000.0);
  const auto rates = sic_rates(ctx);
  const double t_slow = 12000.0 / rates.stronger.value();
  const double t_fast = 12000.0 / rates.weaker.value();
  ASSERT_GT(t_slow / t_fast, 6.0);
  ASSERT_LT(t_slow / t_fast, 7.0);
  const auto plan = best_drain_plan(a, b, kShannon, BacklogOptions{});
  EXPECT_EQ(plan.mode, DrainMode::kPackedTrains);
  EXPECT_EQ(plan.rounds, 1);
  EXPECT_NEAR(plan.airtime, t_slow, t_slow * 1e-12);
}

TEST(BacklogDrain, ZeroQueuePairDegradesToSolo) {
  const auto a = client_db(20.0, 4);
  const auto b = client_db(15.0, 0);
  const auto plan = best_drain_plan(a, b, kShannon, BacklogOptions{});
  EXPECT_NEAR(plan.airtime, solo_drain_airtime(a, kShannon, 12000.0),
              1e-12);
}

TEST(BacklogSchedule, NeverWorseThanSerial) {
  Rng rng{9};
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<BacklogClient> clients;
    const int n = rng.uniform_int(2, 10);
    for (int i = 0; i < n; ++i) {
      clients.push_back(
          client_db(rng.uniform(8.0, 40.0), rng.uniform_int(1, 8)));
    }
    const auto schedule =
        schedule_backlog_upload(clients, kShannon, BacklogOptions{});
    const double serial =
        serial_backlog_airtime(clients, kShannon, 12000.0);
    EXPECT_LE(schedule.total_airtime, serial + serial * 1e-9)
        << "trial " << trial;
    // Every client appears exactly once.
    std::vector<int> seen(static_cast<std::size_t>(n), 0);
    for (const auto& slot : schedule.slots) {
      ++seen[static_cast<std::size_t>(slot.first)];
      if (slot.second >= 0) ++seen[static_cast<std::size_t>(slot.second)];
    }
    for (const int s : seen) EXPECT_EQ(s, 1);
  }
}

TEST(BacklogSchedule, DeeperQueuesRaiseThePackingPayoff) {
  // The paper: packing "will depend heavily on the traffic patterns" — its
  // payoff over lockstep SIC grows with queue depth.
  std::vector<BacklogClient> shallow;
  std::vector<BacklogClient> deep;
  Rng rng{12};
  for (int i = 0; i < 8; ++i) {
    const double snr = rng.uniform(15.0, 30.0);
    shallow.push_back(client_db(snr, 1));
    deep.push_back(client_db(snr, 10));
  }
  BacklogOptions with;
  BacklogOptions without;
  without.enable_packing = false;
  const double shallow_ratio =
      schedule_backlog_upload(shallow, kShannon, without).total_airtime /
      schedule_backlog_upload(shallow, kShannon, with).total_airtime;
  const double deep_ratio =
      schedule_backlog_upload(deep, kShannon, without).total_airtime /
      schedule_backlog_upload(deep, kShannon, with).total_airtime;
  EXPECT_GE(deep_ratio + 1e-9, shallow_ratio);
}

TEST(BacklogSchedule, EmptyAndSingle) {
  EXPECT_TRUE(
      schedule_backlog_upload({}, kShannon, BacklogOptions{}).slots.empty());
  const std::vector<BacklogClient> one{client_db(20.0, 3)};
  const auto schedule =
      schedule_backlog_upload(one, kShannon, BacklogOptions{});
  ASSERT_EQ(schedule.slots.size(), 1u);
  EXPECT_EQ(schedule.slots[0].second, -1);
  EXPECT_NEAR(schedule.total_airtime,
              solo_drain_airtime(one[0], kShannon, 12000.0), 1e-12);
}

TEST(BacklogSchedule, BlossomBeatsGreedyPairing) {
  Rng rng{21};
  std::vector<BacklogClient> clients;
  for (int i = 0; i < 10; ++i) {
    clients.push_back(client_db(rng.uniform(8.0, 40.0), rng.uniform_int(1, 6)));
  }
  BacklogOptions blossom;
  BacklogOptions greedy;
  greedy.pairing = SchedulerOptions::Pairing::kGreedy;
  EXPECT_LE(schedule_backlog_upload(clients, kShannon, blossom).total_airtime,
            schedule_backlog_upload(clients, kShannon, greedy).total_airtime +
                1e-9);
}

TEST(BacklogSchedule, UnservableClientDrainsWithoutAServablePartner) {
  // C1 (-4000 dB) never drains; paired with C2 it would hide C2's queue and
  // leave C0 alone (~657 us in all). It takes the dummy; C0 and C2 pack.
  const std::vector<BacklogClient> clients{
      client_db(20.0, 2), client_db(-4000.0, 3), client_db(15.0, 4)};
  const auto schedule = schedule_backlog_upload(clients, kShannon);
  ASSERT_EQ(schedule.slots.size(), 2u);
  const BacklogSlot& never = schedule.slots[0];  // +inf sorts first
  EXPECT_EQ(std::pair(never.first, never.second), std::pair(1, -1));
  EXPECT_TRUE(std::isinf(never.plan.airtime));
  const BacklogSlot& pair = schedule.slots[1];
  EXPECT_EQ(std::pair(pair.first, pair.second), std::pair(0, 2));
  EXPECT_EQ(pair.plan.mode, DrainMode::kPackedTrains);
  EXPECT_NEAR(1e6 * pair.plan.airtime, 593.1, 0.05);
}

}  // namespace
}  // namespace sic::core
