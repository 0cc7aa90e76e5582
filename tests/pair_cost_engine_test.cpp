#include "core/pair_cost_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include <stdexcept>

#include "core/scheduler.hpp"
#include "phy/rate_table.hpp"
#include "util/rng.hpp"

namespace sic::core {
namespace {

const phy::ShannonRateAdapter kShannon{megahertz(20.0)};
const phy::DiscreteRateAdapter kDot11g{phy::RateTable::dot11g()};
const phy::DiscreteRateAdapter kDot11b{phy::RateTable::dot11b()};
constexpr Milliwatts kN0{1.0};

// SNRs stay above the discrete tables' base sensitivity (6 dB for 802.11g)
// so every solo airtime — and hence every pair cost, via the serial
// fallback — is finite and the matching input is well defined.
std::vector<channel::LinkBudget> random_clients(Rng& rng, int n) {
  std::vector<channel::LinkBudget> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(channel::LinkBudget{
        Milliwatts{Decibels{rng.uniform(6.5, 40.0)}.linear()}, kN0});
  }
  return out;
}

/// The pre-engine schedule_upload, kept verbatim as the bit-identity
/// reference: from-scratch cost matrix via the public best_pair_plan, then
/// matching and the identical slot reconstruction / presentation sort.
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
  // The same dispatch the engine uses, for both Pairing policies.
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

TEST(PairCostEngine, ScheduleUploadBitIdenticalToReference) {
  struct AdapterCase {
    const char* name;
    const phy::RateAdapter* adapter;
  };
  const AdapterCase adapters[] = {
      {"shannon", &kShannon}, {"dot11g", &kDot11g}, {"dot11b", &kDot11b}};
  Rng rng{2024};
  for (int n = 2; n <= 9; ++n) {
    const auto clients = random_clients(rng, n);
    for (const auto& ad : adapters) {
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
                std::string("n=") + std::to_string(n) + " " + ad.name + " " +
                combo.name +
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

TEST(PairCostEngine, EmptyAndSingleClientMatchScheduleUpload) {
  SchedulerOptions options;
  options.admission_margin_db = Decibels{3.0};
  PairCostEngine engine{kShannon, options};
  engine.set_clients({});
  expect_identical(engine.schedule(), schedule_upload({}, kShannon, options),
                   "empty");
  const std::vector<channel::LinkBudget> one{
      channel::LinkBudget{Milliwatts{Decibels{20.0}.linear()}, kN0}};
  engine.set_clients(one);
  expect_identical(engine.schedule(), schedule_upload(one, kShannon, options),
                   "single");
}

TEST(PairCostEngine, DirtyRowRecomputesOnlyTheDriftedClient) {
  Rng rng{7};
  const int n = 10;
  auto clients = random_clients(rng, n);
  SchedulerOptions options;
  options.enable_power_control = true;
  PairCostEngine engine{kShannon, options};
  engine.set_clients(clients);
  (void)engine.schedule();
  EXPECT_EQ(engine.stats().pair_evals,
            static_cast<std::uint64_t>(n * (n - 1) / 2));
  EXPECT_EQ(engine.stats().pair_cache_hits, 0u);
  EXPECT_EQ(engine.stats().row_invalidations, 0u);

  // One client drifts: exactly its n-1 pairs recompute, the other pairs are
  // cache reads, and the schedule equals a from-scratch build on the new
  // topology.
  const int moved = 4;
  clients[moved].rss = clients[moved].rss * 1.25;
  const auto before = engine.stats();
  engine.update_client(moved, clients[moved].rss);
  const auto warm = engine.schedule();
  expect_identical(warm, schedule_upload(clients, kShannon, options),
                   "after drift");
  EXPECT_EQ(engine.stats().row_invalidations - before.row_invalidations, 1u);
  EXPECT_EQ(engine.stats().pair_evals - before.pair_evals,
            static_cast<std::uint64_t>(n - 1));
  EXPECT_EQ(engine.stats().pair_cache_hits - before.pair_cache_hits,
            static_cast<std::uint64_t>((n - 1) * (n - 2) / 2));
}

TEST(PairCostEngine, UnchangedEstimateIsAFullCacheHit) {
  Rng rng{8};
  const auto clients = random_clients(rng, 8);
  PairCostEngine engine{kShannon, SchedulerOptions{}};
  engine.set_clients(clients);
  const auto cold = engine.schedule();
  const auto before = engine.stats();
  for (int c = 0; c < engine.size(); ++c) {
    engine.update_client(c, clients[static_cast<std::size_t>(c)].rss);
  }
  const auto warm = engine.schedule();
  expect_identical(warm, cold, "warm rebuild");
  EXPECT_EQ(engine.stats().row_invalidations, before.row_invalidations);
  EXPECT_EQ(engine.stats().pair_evals, before.pair_evals);
  EXPECT_EQ(engine.stats().pair_cache_hits - before.pair_cache_hits, 28u);
}

TEST(PairCostEngine, EpsilonKeepsRowsWithinToleranceStale) {
  Rng rng{9};
  const auto clients = random_clients(rng, 6);
  PairCostEngine engine{kShannon, SchedulerOptions{}, Decibels{1.0}};
  engine.set_clients(clients);
  const auto cold = engine.schedule();

  // 0.5 dB of drift sits inside the 1 dB fingerprint tolerance: the row
  // keeps its cached plans (and its fingerprint), so the schedule is the
  // stale one, not a rebuild on the moved estimate.
  const Milliwatts nudged = clients[2].rss * Decibels{0.5}.linear();
  engine.update_client(2, nudged);
  EXPECT_EQ(engine.stats().row_invalidations, 0u);
  expect_identical(engine.schedule(), cold, "within epsilon");

  // 2 dB is beyond tolerance: the row recomputes and the schedule matches a
  // from-scratch build on the moved topology.
  auto moved = clients;
  moved[2].rss = clients[2].rss * Decibels{2.0}.linear();
  engine.update_client(2, moved[2].rss);
  EXPECT_EQ(engine.stats().row_invalidations, 1u);
  expect_identical(engine.schedule(), schedule_upload(moved, kShannon, {}),
                   "beyond epsilon");
}

TEST(PairCostEngine, SubsetScheduleMatchesScheduleUploadOnTheSubset) {
  Rng rng{11};
  const auto clients = random_clients(rng, 9);
  SchedulerOptions options;
  options.enable_power_control = true;
  options.enable_multirate = true;
  options.admission_margin_db = Decibels{2.0};
  PairCostEngine engine{kDot11g, options};
  engine.set_clients(clients);
  // Unsorted subsets, even and odd sized, exercising the mirrored triangle.
  const std::vector<std::vector<int>> subsets = {
      {7, 0, 3, 5}, {2, 8, 1, 6, 4}, {1, 0}, {5}};
  for (const auto& subset : subsets) {
    std::vector<channel::LinkBudget> budgets;
    for (const int c : subset) {
      budgets.push_back(clients[static_cast<std::size_t>(c)]);
    }
    expect_identical(engine.schedule_subset(subset),
                     schedule_upload(budgets, kDot11g, options),
                     "subset size " + std::to_string(subset.size()));
  }
}

TEST(PairCostEngine, WarmSingleDriftRematchMeetsEvalBudget) {
  Rng rng{13};
  const int n = 64;
  auto clients = random_clients(rng, n);
  PairCostEngine engine{kShannon, SchedulerOptions{}};
  engine.set_clients(clients);
  (void)engine.schedule();
  const std::uint64_t cold_evals = engine.stats().pair_evals;
  EXPECT_EQ(cold_evals, static_cast<std::uint64_t>(n * (n - 1) / 2));

  clients[17].rss = clients[17].rss * 1.1;
  engine.update_client(17, clients[17].rss);
  (void)engine.schedule();
  const std::uint64_t warm_evals = engine.stats().pair_evals - cold_evals;
  EXPECT_EQ(warm_evals, static_cast<std::uint64_t>(n - 1));
  // The acceptance bar: a one-client re-match must cost at least 5x fewer
  // kernel evaluations than the cold build.
  EXPECT_GE(cold_evals, 5 * warm_evals);
}

TEST(PairCostEngine, UpdateClientOutOfRangeThrowsTyped) {
  // Stale handoffs against a changed topology must surface as a typed
  // std::out_of_range naming the bad index, and must not corrupt the
  // engine: the schedule afterwards still matches a from-scratch build.
  Rng rng{33};
  const auto clients = random_clients(rng, 4);
  PairCostEngine engine{kShannon, SchedulerOptions{}};
  engine.set_clients(clients);
  const auto cold = engine.schedule();
  const Milliwatts rss = clients[0].rss;
  EXPECT_THROW(engine.update_client(-1, rss), std::out_of_range);
  EXPECT_THROW(engine.update_client(4, rss), std::out_of_range);
  try {
    engine.update_client(17, rss);
    FAIL() << "out-of-range index must throw";
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string{e.what()}.find("17"), std::string::npos);
    EXPECT_NE(std::string{e.what()}.find("4"), std::string::npos);  // bound
  }
  expect_identical(engine.schedule(), cold, "after rejected updates");
}

TEST(PairCostEngine, SetClientsAlwaysRebuildsFromScratch) {
  Rng rng{15};
  const auto clients = random_clients(rng, 6);
  PairCostEngine engine{kShannon, SchedulerOptions{}};
  engine.set_clients(clients);
  (void)engine.schedule();
  engine.set_clients(clients);  // same topology, still a full rebuild
  (void)engine.schedule();
  EXPECT_EQ(engine.stats().pair_evals, 30u);
  EXPECT_EQ(engine.stats().pair_cache_hits, 0u);
}

}  // namespace
}  // namespace sic::core
