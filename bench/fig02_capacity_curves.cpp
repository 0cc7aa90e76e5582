/// Reproduces Fig. 2: "Aggregate capacity of two transmitters with SIC is
/// higher than the individual capacities." Prints capacity-vs-SNR series
/// for each single link and for the SIC aggregate, which must coincide
/// with the capacity of a single transmitter at the combined RSS.

#include <cstdio>

#include "bench_util.hpp"
#include "phy/capacity.hpp"

namespace {

int run(int, char**) {
  using namespace sic;
  bench::header("Fig. 2 — capacity curves with and without SIC",
                "C(+SIC) = B log2(1 + (S1+S2)/N0) exceeds both individual "
                "capacities at every SNR");

  const Hertz b = megahertz(20.0);
  const Milliwatts n0{1.0};
  std::printf("%-12s %-14s %-14s %-14s %-16s\n", "SNR2 (dB)", "C1 (Mbps)",
              "C2 (Mbps)", "C(+SIC) Mbps", "C(+SIC)/max(C1,C2)");
  // Fix the stronger link at 20 dB and sweep the weaker one, as the figure
  // sweeps the second transmitter's power.
  const Milliwatts s1{Decibels{20.0}.linear()};
  for (double s2_db = 0.0; s2_db <= 30.0; s2_db += 2.5) {
    const Milliwatts s2{Decibels{s2_db}.linear()};
    const auto arrival = phy::TwoSignalArrival::make(s1, s2, n0);
    const double c1 = phy::shannon_rate(b, s1, n0).megabits();
    const double c2 = phy::shannon_rate(b, s2, n0).megabits();
    const double csic = phy::capacity_with_sic(b, arrival).megabits();
    std::printf("%-12.1f %-14.2f %-14.2f %-14.2f %-16.4f\n", s2_db, c1, c2,
                csic, csic / std::max(c1, c2));
  }
  std::printf("\nrate split at the SIC corner (eq 1 + eq 2 = eq 4):\n");
  for (double s2_db : {5.0, 10.0, 15.0, 20.0}) {
    const Milliwatts s2{Decibels{s2_db}.linear()};
    const auto arrival = phy::TwoSignalArrival::make(s1, s2, n0);
    std::printf("  S2=%4.1f dB: r_strong=%7.2f Mbps  r_weak=%7.2f Mbps  "
                "sum=%7.2f  closed-form=%7.2f\n",
                s2_db, phy::sic_rate_stronger(b, arrival).megabits(),
                phy::sic_rate_weaker(b, arrival).megabits(),
                phy::sic_rate_stronger(b, arrival).megabits() +
                    phy::sic_rate_weaker(b, arrival).megabits(),
                phy::capacity_with_sic(b, arrival).megabits());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return sic::bench::run_main(argc, argv, run);
}
