/// Reproduces Fig. 11: Monte Carlo CDFs of throughput gain for SIC coupled
/// with power control, multirate packetization and packet packing, in (a)
/// the two-transmitter/one-receiver geometry and (b) the two-receiver
/// geometry. Paper: in (a) SIC alone gains >20% in ~20% of cases and the
/// techniques lift that to >20% in ~40%; in (b) nothing helps much.

#include <cstdio>

#include "analysis/montecarlo.hpp"
#include "bench_util.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace sic;
  const bench::RunTimer timer;
  const phy::ShannonRateAdapter shannon{megahertz(20.0)};
  constexpr int kTrials = 10000;
  constexpr std::uint64_t kSeed = 42;
  constexpr double kBits = 12000.0;
  const int threads = bench::threads(argc, argv);
  topology::SamplerConfig config;

  bench::header("Fig. 11a — two transmitters, one receiver",
                "SIC alone: >20% gain in ~20% of cases; with power control "
                "or multirate: >20% gain in ~40%");
  const auto a = analysis::run_two_to_one_techniques(config, shannon, kTrials,
                                                     kSeed, kBits, threads);
  const analysis::EmpiricalCdf a_sic{a.sic};
  const analysis::EmpiricalCdf a_pc{a.power_control};
  const analysis::EmpiricalCdf a_mr{a.multirate};
  const analysis::EmpiricalCdf a_pk{a.packing};
  bench::print_fractions("SIC alone", a_sic);
  bench::print_fractions("SIC + power control", a_pc);
  bench::print_fractions("SIC + multirate", a_mr);
  bench::print_fractions("SIC + packing", a_pk);
  bench::print_cdf("SIC alone", a_sic);
  bench::print_cdf("SIC + power control", a_pc);
  bench::print_cdf("SIC + multirate", a_mr);
  bench::print_cdf("SIC + packing", a_pk);

  bench::header("Fig. 11b — two transmitters, two receivers",
                "SIC alone has almost no gain, and very little even with "
                "the optimizations");
  const auto bb = analysis::run_two_link_techniques(config, shannon, kTrials,
                                                    kSeed, kBits, threads);
  const analysis::EmpiricalCdf b_sic{bb.sic};
  const analysis::EmpiricalCdf b_pc{bb.power_control};
  const analysis::EmpiricalCdf b_pk{bb.packing};
  bench::print_fractions("SIC alone", b_sic);
  bench::print_fractions("SIC + power control", b_pc);
  bench::print_fractions("SIC + packing", b_pk);
  bench::print_cdf("SIC alone", b_sic);
  bench::print_cdf("SIC + power control", b_pc);
  bench::print_cdf("SIC + packing", b_pk);
  std::printf("(multirate is not applicable with two receivers, Sec. 5.5)\n");
  if (const auto prefix = bench::csv_prefix(argc, argv)) {
    const std::string man = bench::manifest(kSeed, timer, 2 * kTrials);
    bench::write_text_file(*prefix + "fig11a_sic.csv",
                           man + bench::cdf_csv(a_sic));
    bench::write_text_file(*prefix + "fig11a_power.csv",
                           man + bench::cdf_csv(a_pc));
    bench::write_text_file(*prefix + "fig11a_multirate.csv",
                           man + bench::cdf_csv(a_mr));
    bench::write_text_file(*prefix + "fig11a_packing.csv",
                           man + bench::cdf_csv(a_pk));
    bench::write_text_file(*prefix + "fig11b_sic.csv",
                           man + bench::cdf_csv(b_sic));
    bench::write_text_file(*prefix + "fig11b_power.csv",
                           man + bench::cdf_csv(b_pc));
    bench::write_text_file(*prefix + "fig11b_packing.csv",
                           man + bench::cdf_csv(b_pk));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return sic::bench::run_main(argc, argv, run);
}
