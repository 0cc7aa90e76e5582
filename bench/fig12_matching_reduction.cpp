/// Reproduces Fig. 12: "Translating SIC-aware scheduling into Edmond's
/// minimum weight perfect matching algorithm." Prints the reduction for a
/// small worked instance — the complete pair-cost graph t_ij (including
/// the dummy client for the odd count), the minimum-weight perfect
/// matching, and the resulting transmission schedule.

#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "core/scheduler.hpp"
#include "matching/blossom.hpp"

namespace {

int run(int, char**) {
  using namespace sic;
  bench::header("Fig. 12 — the scheduling → matching reduction",
                "pair costs t_ij, dummy client for odd counts, min-weight "
                "perfect matching, schedule");

  const phy::ShannonRateAdapter shannon{megahertz(20.0)};
  constexpr Milliwatts kN0{1.0};
  // Five backlogged clients (odd, to exercise the dummy vertex).
  const double snrs_db[] = {30.0, 24.0, 19.0, 12.0, 9.0};
  std::vector<channel::LinkBudget> clients;
  for (const double db : snrs_db) {
    clients.push_back(channel::LinkBudget{Milliwatts{Decibels{db}.linear()},
                                          kN0});
  }
  const int n = static_cast<int>(clients.size());
  core::SchedulerOptions options;
  options.enable_power_control = true;

  // The reduction's graph: t_ij for client pairs, solo time to the dummy D.
  const int m = n + 1;
  matching::CostMatrix costs{m};
  std::printf("pair costs t_ij in us (D = dummy = solo transmission):\n");
  std::printf("      ");
  for (int j = 0; j < n; ++j) std::printf("   C%d   ", j);
  std::printf("    D\n");
  for (int i = 0; i < n; ++i) {
    std::printf("  C%d  ", i);
    for (int j = 0; j < n; ++j) {
      if (j <= i) {
        std::printf("   .    ");
        continue;
      }
      const auto plan =
          core::best_pair_plan(clients[i], clients[j], shannon, options);
      costs.set(i, j, plan.airtime);
      std::printf("%7.1f ", 1e6 * plan.airtime);
    }
    const double solo = core::solo_airtime(clients[i], shannon, 12000.0);
    costs.set(i, n, solo);
    std::printf("%7.1f\n", 1e6 * solo);
  }

  const auto matching = matching::min_weight_perfect_matching(costs);
  std::printf("\nminimum-weight perfect matching (total %.1f us):\n",
              1e6 * matching.total_cost);
  for (const auto& [u, v] : matching.pairs) {
    if (v == n) {
      std::printf("  C%d — D   (transmits alone)\n", u);
    } else {
      std::printf("  C%d — C%d\n", u, v);
    }
  }

  const auto schedule = core::schedule_upload(clients, shannon, options);
  const double serial = core::serial_upload_airtime(clients, shannon, 12000.0);
  std::printf("\nresulting schedule (any slot order):\n");
  for (const auto& slot : schedule.slots) {
    if (slot.second < 0) {
      std::printf("  C%d solo            %8.1f us\n", slot.first,
                  1e6 * slot.plan.airtime);
    } else {
      std::printf("  C%d + C%d %-12s %8.1f us\n", slot.first, slot.second,
                  to_string(slot.plan.mode), 1e6 * slot.plan.airtime);
    }
  }
  std::printf("total %.1f us vs serial %.1f us  ->  gain %.3fx\n",
              1e6 * schedule.total_airtime, 1e6 * serial,
              serial / schedule.total_airtime);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return sic::bench::run_main(argc, argv, run);
}
