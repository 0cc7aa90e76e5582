/// Reproduces Fig. 10: the client pairing / power control / multirate /
/// packing illustration. Four clients whose solo airtimes are 1, 2, 4 and
/// 8 time units upload one packet each; the bench prints the serial
/// schedule, all three SIC pairings, and what each Section 5 technique
/// buys — the paper's 15 / {11.5, 12, 13} / 11 / ~10.4 story (values
/// differ since the paper's illustration is stylized, but the ordering
/// must reproduce).

#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "core/multirate.hpp"
#include "core/packing.hpp"
#include "core/power_control.hpp"
#include "core/scheduler.hpp"

namespace {

int run(int, char**) {
  using namespace sic;
  bench::header("Fig. 10 — pairing / power control / multirate illustration",
                "serial 15 units; pairings ~{11.5, 12, 13}; power control "
                "and multirate improve the best pairing further");

  const phy::ShannonRateAdapter shannon{megahertz(20.0)};
  const Milliwatts n0{1.0};
  const double bits = 12000.0;
  // Solo airtimes 1:2:4:8  ⇔  clean rates 8:4:2:1 (Shannon exponents).
  const double base_bits_per_hz = 3.46;  // C4's spectral efficiency
  std::vector<channel::LinkBudget> clients;
  for (const double mult : {8.0, 4.0, 2.0, 1.0}) {
    const double snr = std::pow(2.0, base_bits_per_hz * mult) - 1.0;
    clients.push_back(channel::LinkBudget{Milliwatts{snr}, n0});
  }
  // Normalize so C1's solo airtime is 1 unit.
  const double unit = core::solo_airtime(clients[0], shannon, bits);
  const auto units = [&](double seconds) { return seconds / unit; };

  std::printf("solo airtimes (units):");
  double serial_total = 0.0;
  for (const auto& c : clients) {
    const double t = core::solo_airtime(c, shannon, bits);
    serial_total += t;
    std::printf(" %.2f", units(t));
  }
  std::printf("   serial total = %.2f\n\n", units(serial_total));

  core::SchedulerOptions plain;
  plain.packet_bits = bits;
  const int pairings[3][4] = {{0, 1, 2, 3}, {0, 2, 1, 3}, {0, 3, 1, 2}};
  const char* names[3] = {"(C1|C2, C3|C4)", "(C1|C3, C2|C4)",
                          "(C1|C4, C2|C3)"};
  double best_static = 1e300;
  for (int p = 0; p < 3; ++p) {
    double total = 0.0;
    for (int k = 0; k < 2; ++k) {
      const auto plan =
          core::best_pair_plan(clients[pairings[p][2 * k]],
                               clients[pairings[p][2 * k + 1]], shannon, plain);
      total += plan.airtime;
    }
    best_static = std::min(best_static, total);
    std::printf("pairing %-18s total = %.2f units\n", names[p], units(total));
  }

  core::SchedulerOptions with_pc = plain;
  with_pc.enable_power_control = true;
  core::SchedulerOptions with_mr = plain;
  with_mr.enable_multirate = true;
  const double t_sched =
      core::schedule_upload(clients, shannon, plain).total_airtime;
  const double t_pc =
      core::schedule_upload(clients, shannon, with_pc).total_airtime;
  const double t_mr =
      core::schedule_upload(clients, shannon, with_mr).total_airtime;
  std::printf("\nblossom schedule (plain SIC)      = %.2f units\n",
              units(t_sched));
  std::printf("blossom schedule + power control  = %.2f units\n",
              units(t_pc));
  std::printf("blossom schedule + multirate      = %.2f units\n",
              units(t_mr));
  std::printf("(matches the best static pairing: %.2f)\n", units(best_static));

  // Packet packing on the most disparate pair (C1 strong, C4 weak).
  const auto ctx = core::UploadPairContext::make(clients[0].rss,
                                                 clients[3].rss, n0, shannon,
                                                 bits);
  const auto packing = core::packing_two_to_one(ctx);
  std::printf("\npacket packing on C1|C4: %d fast packets in %.2f units, "
              "per-packet gain %.3f\n",
              packing.fast_packets, units(packing.span), packing.gain);

  // Second panel: an *off-ridge* cell (similar RSSs) where plain SIC pairs
  // badly and the Section 5 techniques do the heavy lifting — the Fig. 10e
  // and 10f story.
  std::printf("\noff-ridge cell (clients at 22/21/19/18 dB):\n");
  std::vector<channel::LinkBudget> close_cell;
  for (const double db : {22.0, 21.0, 19.0, 18.0}) {
    close_cell.push_back(
        channel::LinkBudget{Milliwatts{Decibels{db}.linear()}, n0});
  }
  const double unit2 = core::solo_airtime(close_cell[3], shannon, bits);
  const double serial2 =
      core::serial_upload_airtime(close_cell, shannon, bits);
  const double plain2 =
      core::schedule_upload(close_cell, shannon, plain).total_airtime;
  const double pc2 =
      core::schedule_upload(close_cell, shannon, with_pc).total_airtime;
  const double mr2 =
      core::schedule_upload(close_cell, shannon, with_mr).total_airtime;
  std::printf("  serial                  = %.2f units\n", serial2 / unit2);
  std::printf("  best pairing, plain SIC = %.2f units\n", plain2 / unit2);
  std::printf("  pairing + power control = %.2f units (Fig. 10e)\n",
              pc2 / unit2);
  std::printf("  pairing + multirate     = %.2f units (Fig. 10f)\n",
              mr2 / unit2);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return sic::bench::run_main(argc, argv, run);
}
