/// schedule_upload against a from-scratch reference built on the public
/// best_pair_plan, and its option validation at every client count.

#include "core/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/power_control.hpp"
#include "obs/metrics.hpp"
#include "phy/rate_table.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace sic::core {
namespace {

const phy::ShannonRateAdapter kShannon{megahertz(20.0)};
const phy::DiscreteRateAdapter kDot11g{phy::RateTable::dot11g()};
const phy::DiscreteRateAdapter kDot11b{phy::RateTable::dot11b()};
const phy::DiscreteRateAdapter kDot11n{phy::RateTable::dot11n()};
constexpr Milliwatts kN0{1.0};

// SNRs stay above the discrete tables' base sensitivity (6 dB for 802.11g)
// so every solo airtime is finite; the bit-identity test adds its one
// unservable client explicitly.
std::vector<channel::LinkBudget> random_clients(Rng& rng, int n) {
  std::vector<channel::LinkBudget> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(channel::LinkBudget{
        Milliwatts{Decibels{rng.uniform(6.5, 40.0)}.linear()}, kN0});
  }
  return out;
}

/// The bit-identity reference: a cost matrix from the public
/// best_pair_plan one pair at a time (scalar rate lookups, no row
/// batching), then the same matching dispatch and the identical slot
/// reconstruction / presentation sort.
Schedule reference_schedule(std::span<const channel::LinkBudget> clients,
                            const phy::RateAdapter& adapter,
                            const SchedulerOptions& options) {
  Schedule schedule;
  schedule.admission_margin_db = options.admission_margin_db;
  const int n = static_cast<int>(clients.size());
  if (n == 0) return schedule;
  if (n == 1) {
    const double t = solo_airtime(clients[0], adapter, options.packet_bits);
    schedule.slots.push_back(
        ScheduledSlot{0, -1, PairPlan{PairMode::kSolo, t, 1.0}});
    schedule.total_airtime = t;
    return schedule;
  }
  const bool odd = (n % 2) != 0;
  const int m = odd ? n + 1 : n;
  const int dummy = odd ? n : -1;
  std::vector<PairPlan> plans(static_cast<std::size_t>(m) * m);
  matching::CostMatrix costs{m};
  std::vector<double> serial(static_cast<std::size_t>(m), 0.0);  // dummy: 0
  for (int i = 0; i < n; ++i) {
    serial[i] = solo_airtime(clients[i], adapter, options.packet_bits);
    for (int j = i + 1; j < n; ++j) {
      const PairPlan plan =
          best_pair_plan(clients[i], clients[j], adapter, options);
      costs.set(i, j, plan.airtime);
      plans[static_cast<std::size_t>(i) * m + j] = plan;
    }
    if (odd) {
      costs.set(i, dummy, serial[i]);
      plans[static_cast<std::size_t>(i) * m + dummy] =
          PairPlan{PairMode::kSolo, serial[i], 1.0};
    }
  }
  // The same dispatch schedule_upload uses, for both Pairing policies.
  std::vector<matching::WeightedEdge> edge_scratch;
  const matching::Matching matching =
      run_pairing(costs, options.pairing, serial, edge_scratch);
  for (const auto& [u, v] : matching.pairs) {
    const int i = std::min(u, v);
    const int j = std::max(u, v);
    const PairPlan& plan = plans[static_cast<std::size_t>(i) * m + j];
    ScheduledSlot slot;
    slot.first = i;
    slot.second = (j == dummy) ? -1 : j;
    slot.plan = plan;
    schedule.slots.push_back(slot);
    schedule.total_airtime += plan.airtime;
  }
  std::sort(schedule.slots.begin(), schedule.slots.end(),
            [](const ScheduledSlot& a, const ScheduledSlot& b) {
              if (a.plan.airtime != b.plan.airtime) {
                return a.plan.airtime > b.plan.airtime;
              }
              return a.first < b.first;
            });
  return schedule;
}

/// Exact (bit-level) schedule equality: doubles compared with ==.
void expect_identical(const Schedule& got, const Schedule& want,
                      const std::string& what) {
  EXPECT_EQ(got.admission_margin_db.value(), want.admission_margin_db.value())
      << what;
  EXPECT_EQ(got.total_airtime, want.total_airtime) << what;
  ASSERT_EQ(got.slots.size(), want.slots.size()) << what;
  for (std::size_t s = 0; s < got.slots.size(); ++s) {
    EXPECT_EQ(got.slots[s].first, want.slots[s].first) << what << " slot " << s;
    EXPECT_EQ(got.slots[s].second, want.slots[s].second)
        << what << " slot " << s;
    EXPECT_EQ(got.slots[s].plan.mode, want.slots[s].plan.mode)
        << what << " slot " << s;
    EXPECT_EQ(got.slots[s].plan.airtime, want.slots[s].plan.airtime)
        << what << " slot " << s;
    EXPECT_EQ(got.slots[s].plan.weaker_power_scale,
              want.slots[s].plan.weaker_power_scale)
        << what << " slot " << s;
  }
}

struct TechniqueCombo {
  const char* name;
  bool power_control;
  bool multirate;
};

constexpr TechniqueCombo kCombos[] = {
    {"none", false, false},
    {"pc", true, false},
    {"mr", false, true},
    {"pc+mr", true, true},
};

// The next two tests keep the suite name they had when the pair-plan cost
// matrix lived in a PairCostEngine class; both now drive schedule_upload
// directly.
TEST(PairCostEngine, ScheduleUploadBitIdenticalToReference) {
  struct AdapterCase {
    const char* name;
    const phy::RateAdapter* adapter;
    bool discrete;
  };
  const AdapterCase adapters[] = {{"shannon", &kShannon, false},
                                  {"dot11g", &kDot11g, true},
                                  {"dot11b", &kDot11b, true}};
  // Below both tables' base sensitivity: +inf solo airtime, so every pair
  // it joins costs +inf and the unservable path is pinned too.
  const channel::LinkBudget unservable{
      Milliwatts{Decibels{-3.0}.linear()}, kN0};
  Rng rng{2024};
  for (int n = 0; n <= 9; ++n) {
    const auto generated = random_clients(rng, n);
    for (const auto& ad : adapters) {
      auto clients = generated;
      if (ad.discrete) clients.push_back(unservable);
      for (const auto& combo : kCombos) {
        for (const auto pairing : {SchedulerOptions::Pairing::kBlossom,
                                   SchedulerOptions::Pairing::kGreedy}) {
          for (const double margin : {0.0, 3.0}) {
            SchedulerOptions options;
            options.enable_power_control = combo.power_control;
            options.enable_multirate = combo.multirate;
            options.pairing = pairing;
            options.admission_margin_db = Decibels{margin};
            const std::string what =
                std::string("n=") + std::to_string(clients.size()) + " " +
                ad.name + " " + combo.name +
                (pairing == SchedulerOptions::Pairing::kGreedy ? " greedy"
                                                               : " blossom") +
                " margin=" + std::to_string(margin);
            expect_identical(
                schedule_upload(clients, *ad.adapter, options),
                reference_schedule(clients, *ad.adapter, options), what);
          }
        }
      }
    }
  }
}

TEST(ScheduleUpload, PowerControlCellsBitIdenticalToPairPlans) {
  // schedule_upload skips the power-control search for pairs whose
  // stronger client is not the strict bottleneck at full power, reading
  // its row pass's rates; best_pair_plan runs the search on every pair.
  // Every cell size a deployment AP serves, on all three discrete tables.
  const phy::DiscreteRateAdapter* const adapters[] = {&kDot11b, &kDot11g,
                                                      &kDot11n};
  Rng rng{1402};
  for (const phy::DiscreteRateAdapter* adapter : adapters) {
    for (int n = 2; n <= 64; ++n) {
      const auto clients = random_clients(rng, n);
      for (const bool multirate : {false, true}) {
        for (const double margin : {0.0, 3.0}) {
          SchedulerOptions options;
          options.enable_power_control = true;
          options.enable_multirate = multirate;
          options.admission_margin_db = Decibels{margin};
          const std::string what = adapter->name() + " n=" +
                                   std::to_string(n) +
                                   (multirate ? " pc+mr" : " pc") +
                                   " margin=" + std::to_string(margin);
          expect_identical(schedule_upload(clients, *adapter, options),
                           reference_schedule(clients, *adapter, options),
                           what);
        }
      }
    }
  }
}

TEST(ScheduleUpload, PublishesPowerControlSearchCountsPerBuild) {
  // With power control on and a registry attached, a build adds the
  // searches its pairs ran and their probes: one search per pair whose
  // margin-derated stronger client is strictly slower than the weaker at
  // full power, with the probes a WeakerPowerSearch makes on those pairs.
  Rng rng{77};
  const auto clients = random_clients(rng, 32);
  SchedulerOptions options;
  options.enable_power_control = true;
  options.admission_margin_db = Decibels{3.0};
  const double derate = Decibels{-3.0}.linear();
  WeakerPowerSearch expected{kDot11g, options.packet_bits};
  std::uint64_t strict_bottlenecks = 0;
  for (std::size_t i = 0; i < clients.size(); ++i) {
    for (std::size_t j = i + 1; j < clients.size(); ++j) {
      const UploadPairContext ctx = UploadPairContext::make(
          clients[i].rss * derate, clients[j].rss * derate, kN0, kDot11g,
          options.packet_bits);
      const SicRatePair rates = sic_rates(ctx);
      strict_bottlenecks +=
          airtime_seconds(options.packet_bits, rates.stronger) >
          airtime_seconds(options.packet_bits, rates.weaker);
      (void)expected.optimize(ctx.arrival, rates);
    }
  }
  ASSERT_GT(strict_bottlenecks, 0u);
  ASSERT_LT(strict_bottlenecks, 32u * 31u / 2u);

  obs::MetricsRegistry registry;
  obs::MetricsRegistry* const previous = obs::set_metrics(&registry);
  (void)schedule_upload(clients, kDot11g, options);
  (void)schedule_upload(clients, kDot11g, options);
  options.enable_power_control = false;
  (void)schedule_upload(clients, kDot11g, options);
  (void)obs::set_metrics(previous);
  EXPECT_EQ(registry.counter("scheduler.pair_engine.builds").value(), 3u);
  EXPECT_EQ(registry.counter("scheduler.pair_engine.pc_searches").value(),
            2 * strict_bottlenecks);
  EXPECT_EQ(expected.searches(), strict_bottlenecks);
  EXPECT_EQ(registry.counter("scheduler.pair_engine.pc_probes").value(),
            2 * expected.probes());

  // Power control off: no pc_* counter appears at all.
  obs::MetricsRegistry off;
  (void)obs::set_metrics(&off);
  (void)schedule_upload(clients, kDot11g, options);
  (void)obs::set_metrics(previous);
  for (const auto& [name, value] : off.counter_values()) {
    EXPECT_EQ(name.find("pc_"), std::string::npos) << name;
  }
}

/// Largest pair gain, serial sum minus pair airtime, that the matcher's
/// gain graph quantises against.
double top_gain(std::span<const channel::LinkBudget> clients,
                const phy::RateAdapter& adapter,
                const SchedulerOptions& options) {
  double top = 0.0;
  for (std::size_t i = 0; i < clients.size(); ++i) {
    for (std::size_t j = i + 1; j < clients.size(); ++j) {
      const double serial =
          solo_airtime(clients[i], adapter, options.packet_bits) +
          solo_airtime(clients[j], adapter, options.packet_bits);
      top = std::max(
          top, serial - best_pair_plan(clients[i], clients[j], adapter, options)
                            .airtime);
    }
  }
  return top;
}

/// How far two optimal schedules of one instance may differ in total
/// airtime: the matcher's optima are exact on a grid of top gain · 2⁻²⁶
/// (matching/blossom.hpp), so n · top gain · 2⁻²⁶ bounds the rounding of
/// either pairing's gains, as in tests/matching_stress_test.cpp; n · ε of
/// the total covers summing the slots in another order.
double optimum_tolerance(std::size_t n, double top, double total) {
  const double count = static_cast<double>(n);
  return count * (top * std::ldexp(1.0, -26) +
                  total * std::numeric_limits<double>::epsilon());
}

/// Metamorphic cells: seeded Shannon and 802.11g cells of 2 to 64 clients,
/// at admission margins 0 and 3 dB.
struct MetamorphicCell {
  std::string what;
  const phy::RateAdapter* adapter;
  std::vector<channel::LinkBudget> clients;
  Decibels margin;
};

std::vector<MetamorphicCell> metamorphic_cells() {
  const std::pair<const char*, const phy::RateAdapter*> adapters[] = {
      {"shannon", &kShannon}, {"dot11g", &kDot11g}};
  std::vector<MetamorphicCell> cells;
  Rng rng{1405};
  for (const auto& [name, adapter] : adapters) {
    for (const int n : {2, 3, 4, 5, 7, 8, 12, 16, 23, 32, 47, 64}) {
      for (const double margin : {0.0, 3.0}) {
        cells.push_back(MetamorphicCell{
            std::string(name) + " n=" + std::to_string(n) +
                " margin=" + std::to_string(margin),
            adapter, random_clients(rng, n), Decibels{margin}});
      }
    }
  }
  return cells;
}

TEST(ScheduleUpload, RelabellingKeepsTotalAirtime) {
  // Metamorphic: the optimum cannot depend on which index a client has.
  Rng rng{1406};
  for (const MetamorphicCell& cell : metamorphic_cells()) {
    std::vector<channel::LinkBudget> relabelled = cell.clients;
    std::shuffle(relabelled.begin(), relabelled.end(), rng.engine());
    for (const auto& combo : kCombos) {
      SchedulerOptions options;
      options.enable_power_control = combo.power_control;
      options.enable_multirate = combo.multirate;
      options.admission_margin_db = cell.margin;
      const Schedule a = schedule_upload(cell.clients, *cell.adapter, options);
      const Schedule b = schedule_upload(relabelled, *cell.adapter, options);
      EXPECT_NEAR(a.total_airtime, b.total_airtime,
                  optimum_tolerance(
                      cell.clients.size(),
                      top_gain(cell.clients, *cell.adapter, options),
                      a.total_airtime))
          << cell.what << " " << combo.name;
    }
  }
}

TEST(ScheduleUpload, TechniquesNeverRaiseTotalAirtime) {
  // Metamorphic: power control and multirate only add candidate plans to
  // every pair, so turning either on never raises the optimum.
  for (const MetamorphicCell& cell : metamorphic_cells()) {
    double total[2][2] = {};
    double top = 0.0;
    for (const bool pc : {false, true}) {
      for (const bool mr : {false, true}) {
        SchedulerOptions options;
        options.enable_power_control = pc;
        options.enable_multirate = mr;
        options.admission_margin_db = cell.margin;
        total[pc][mr] =
            schedule_upload(cell.clients, *cell.adapter, options).total_airtime;
        top = std::max(top, top_gain(cell.clients, *cell.adapter, options));
      }
    }
    const double tol =
        optimum_tolerance(cell.clients.size(), top, total[0][0]);
    EXPECT_LE(total[1][0], total[0][0] + tol) << cell.what << " +pc";
    EXPECT_LE(total[0][1], total[0][0] + tol) << cell.what << " +mr";
    EXPECT_LE(total[1][1], total[1][0] + tol) << cell.what << " pc, +mr";
    EXPECT_LE(total[1][1], total[0][1] + tol) << cell.what << " mr, +pc";
  }
}

TEST(PairCostEngine, EmptyAndSingleClientMatchScheduleUpload) {
  // The two shapes that bypass the matcher: no clients is an empty
  // schedule, one client is a single solo slot at its serial airtime.
  SchedulerOptions options;
  options.admission_margin_db = Decibels{3.0};
  const Schedule empty = schedule_upload({}, kShannon, options);
  EXPECT_TRUE(empty.slots.empty());
  EXPECT_EQ(empty.total_airtime, 0.0);
  expect_identical(empty, reference_schedule({}, kShannon, options), "empty");
  const std::vector<channel::LinkBudget> one{
      channel::LinkBudget{Milliwatts{Decibels{20.0}.linear()}, kN0}};
  const Schedule single = schedule_upload(one, kShannon, options);
  ASSERT_EQ(single.slots.size(), 1u);
  EXPECT_EQ(single.slots[0].first, 0);
  EXPECT_EQ(single.slots[0].second, -1);
  EXPECT_EQ(single.slots[0].plan.mode, PairMode::kSolo);
  EXPECT_EQ(single.total_airtime,
            solo_airtime(one[0], kShannon, options.packet_bits));
  expect_identical(single, reference_schedule(one, kShannon, options),
                   "single");
}

TEST(ScheduleUpload, MalformedOptionsRejectedAtAnyClientCount) {
  // One validation at entry: a bad option throws a CheckError naming it
  // whether or not a pair is ever planned.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Rng rng{5};
  const auto pool = random_clients(rng, 2);
  const auto expect_rejected = [&](const SchedulerOptions& options,
                                   const std::string& option) {
    for (std::size_t n = 0; n <= 2; ++n) {
      const std::span<const channel::LinkBudget> clients{pool.data(), n};
      try {
        (void)schedule_upload(clients, kShannon, options);
        ADD_FAILURE() << option << " accepted at n=" << n;
      } catch (const CheckError& e) {
        EXPECT_NE(std::string{e.what()}.find(option), std::string::npos)
            << e.what();
      }
    }
  };
  for (const double bits : {0.0, -12000.0, kNaN, kInf}) {
    SchedulerOptions options;
    options.packet_bits = bits;
    expect_rejected(options, "packet_bits");
  }
  for (const double margin : {-3.0, kNaN, kInf}) {
    SchedulerOptions options;
    options.admission_margin_db = Decibels{margin};
    expect_rejected(options, "admission_margin_db");
  }
}

}  // namespace
}  // namespace sic::core
