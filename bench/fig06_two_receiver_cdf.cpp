/// Reproduces Fig. 6: Monte Carlo CDF of SIC gain for two transmissions to
/// different receivers. "No gain from SIC in 90% of the cases." 10,000
/// random topologies per range, path-loss exponent α = 4.

#include <cstdio>

#include "analysis/montecarlo.hpp"
#include "bench_util.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace sic;
  const bench::RunTimer timer;
  // Flags first: a usage error prints nothing on stdout.
  const int threads = bench::threads(argc, argv);
  bench::header("Fig. 6 — two transmitters to different receivers",
                "no gain from SIC in ~90% of random topologies, all ranges");

  const phy::ShannonRateAdapter shannon{megahertz(20.0)};
  constexpr int kTrials = 10000;
  constexpr std::uint64_t kSeed = 1234;
  constexpr double kBits = 12000.0;
  std::printf("trials=%d seed=%llu alpha=4 threads=%d\n\n", kTrials,
              static_cast<unsigned long long>(kSeed), threads);
  for (const double range : {30.0, 40.0, 50.0}) {
    topology::SamplerConfig config;
    config.range_m = range;
    const auto gains = analysis::run_two_link_gains(config, shannon, kTrials,
                                                    kSeed, kBits, threads);
    const analysis::EmpiricalCdf cdf{gains};
    char label[64];
    std::snprintf(label, sizeof(label), "range %.0f m", range);
    bench::print_fractions(label, cdf);
    bench::print_cdf(label, cdf);
    if (const auto prefix = bench::csv_prefix(argc, argv)) {
      std::snprintf(label, sizeof(label), "fig06_range%.0f.csv", range);
      bench::write_text_file(*prefix + label,
                             bench::manifest(kSeed, timer, kTrials) +
                                 bench::cdf_csv(cdf));
    }
  }
  std::printf("\nlower path-loss exponent (paper: 'gains from lower pathloss"
              " exponents ... are even lower'):\n");
  for (const double alpha : {3.0, 4.0}) {
    topology::SamplerConfig config;
    config.pathloss_exponent = alpha;
    const auto gains = analysis::run_two_link_gains(config, shannon, kTrials,
                                                    kSeed, kBits, threads);
    const analysis::EmpiricalCdf cdf{gains};
    char label[64];
    std::snprintf(label, sizeof(label), "alpha %.1f", alpha);
    bench::print_fractions(label, cdf);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return sic::bench::run_main(argc, argv, run);
}
