/// Ablation — backlogged queues and packet packing (Section 5.4): drains
/// a cell of backlogged clients under the three pair disciplines and shows
/// how the packing payoff depends on traffic patterns ("this kind of
/// transmission will depend heavily on the traffic patterns").

#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "core/backlog.hpp"
#include "util/rng.hpp"

namespace {

int run(int, char**) {
  using namespace sic;
  bench::header("Ablation — backlogged queues and packet packing",
                "packing's edge over pairing grows with queue depth and "
                "queue asymmetry");

  const phy::ShannonRateAdapter shannon{megahertz(20.0)};
  constexpr Milliwatts kN0{1.0};
  constexpr int kClients = 10;
  constexpr int kTrials = 200;

  const auto run = [&](int min_packets, int max_packets, bool packing,
                       std::uint64_t seed) {
    Rng rng{seed};
    double total_sched = 0.0;
    double total_serial = 0.0;
    for (int t = 0; t < kTrials; ++t) {
      std::vector<core::BacklogClient> clients;
      for (int i = 0; i < kClients; ++i) {
        clients.push_back(core::BacklogClient{
            channel::LinkBudget{
                Milliwatts{Decibels{rng.uniform(10.0, 35.0)}.linear()}, kN0},
            rng.uniform_int(min_packets, max_packets)});
      }
      core::BacklogOptions options;
      options.enable_packing = packing;
      total_sched +=
          core::schedule_backlog_upload(clients, shannon, options)
              .total_airtime;
      total_serial +=
          core::serial_backlog_airtime(clients, shannon, 12000.0);
    }
    return total_serial / total_sched;
  };

  std::printf("%-28s %-18s %-18s\n", "queue depths", "gain w/o packing",
              "gain with packing");
  struct Case {
    const char* name;
    int lo;
    int hi;
  };
  for (const Case& c : {Case{"1 packet each", 1, 1},
                        Case{"1-4 packets", 1, 4},
                        Case{"4-8 packets", 4, 8},
                        Case{"1-16 packets (bursty)", 1, 16}}) {
    const double without = run(c.lo, c.hi, false, 5);
    const double with = run(c.lo, c.hi, true, 5);
    std::printf("%-28s %-18.4f %-18.4f\n", c.name, without, with);
  }
  std::printf("\n(gain = serial drain time / scheduled drain time, averaged "
              "over %d random 10-client cells)\n", kTrials);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return sic::bench::run_main(argc, argv, run);
}
